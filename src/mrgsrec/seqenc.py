"""Transformer encoder over the user-token-prefixed item window.

The input per user is a (c+1) x d matrix: user embedding first, then the
padded item window. Blocks are pre-layer-norm residual: attention, then a
two-layer ReLU feed-forward. Each is one fused op (``ad.attention`` after
the q, k, v projections, ``ad.feed_forward``) that takes the keep-masks
drawn here. The output keeps the input shape. Its item rows are the
local enriched embeddings, and the ``user_state`` row is the local
behavioral representation: the final window slot by default
(``last_position``), or the user-token row (``first_token``).

Attention policy: items attend causally over valid item positions and may
always see the user token; in causal mode the user token attends only to
itself, so it cannot leak future items. Padding slots are never attended
to and see only the user token (their outputs are ignored downstream).

``seq_encode(..., positions=False)`` builds the user state alone, for
callers that read no per-position output (evaluation). Every block before
the last runs as usual; the final block still takes layer norm, keys and
values over all rows, but its queries, attention, output projection,
residual and feed-forward cover the state row only (row c for
``last_position``, row 0 for ``first_token``). It returns ``(e_l, None)``.
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
    d_ff: int | None = setting("feed_forward_dim", None, minimum=1,
                               help="FFN width; null means 4x embedding_dim")
    dropout_rate: float = setting("dropout_rate", 0.2, minimum=0.0,
                                  help="dropout on attention probs and block outputs")
    attention_mode: str = setting("attention_mode", "causal", choices=ATTENTION_MODES,
                                  help="causal or bidirectional")
    user_state: str = setting(
        "user_state", "last_position", choices=USER_STATES,
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

    def named(self) -> dict[str, ad.Tensor]:
        return {f"encoder.layer{i}.{key}": tensor
                for i, layer in enumerate(self.layers) for key, tensor in layer.items()}


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


def seq_encode(e_u: ad.Tensor, E_u: ad.Tensor, params: SeqEncoderParams,
               config: SeqEncoderConfig, valid_lengths: np.ndarray,
               train_mode: bool = False,
               rng: np.random.Generator | None = None,
               positions: bool = True
               ) -> tuple[ad.Tensor, ad.Tensor | None]:
    """Run the encoder; returns (e_l of shape (B, d), E_l of shape (B, c, d)).

    With ``n_layers == 0`` the encoder is the identity. ``rng`` drives
    dropout and is required only when ``train_mode`` and dropout_rate > 0.
    ``positions=False`` computes the final block on the state row only and
    returns ``(e_l, None)``.
    """
    if e_u.ndim != 2 or E_u.ndim != 3:
        raise DimensionError("expected e_u (B, d) and E_u (B, c, d)")
    b, d = e_u.shape
    if E_u.shape[0] != b or E_u.shape[2] != d or d != config.d:
        raise DimensionError(
            f"shape mismatch: e_u {e_u.shape}, E_u {E_u.shape}, d={config.d}")
    if train_mode and config.dropout_rate > 0.0 and rng is None:
        raise ValueError("train_mode with dropout requires an rng")
    c, rate = E_u.shape[1], config.dropout_rate
    state_row = c if config.user_state == "last_position" else 0
    x = ad.concat([ad.reshape(e_u, (b, 1, d)), E_u], axis=1)
    mask = causal_attention_mask(c + 1, valid_lengths, config.attention_mode)
    for i, layer in enumerate(params.layers):
        h = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        queries = h
        if not positions and i == len(params.layers) - 1:
            # The final block's queries and residual at the state row alone;
            # keys and values still span every row.
            queries = ad.narrow(h, 1, state_row, 1)
            x, mask = ad.narrow(x, 1, state_row, 1), mask[:, state_row:state_row + 1]
        keep = ad.keep_mask((b, config.n_heads, x.shape[1], c + 1), rate, rng,
                            train_mode)
        x = ad.add(x, ad.attention(
            ad.matmul(queries, layer["wq"]), ad.matmul(h, layer["wk"]),
            ad.matmul(h, layer["wv"]), layer["wo"], mask, config.n_heads, keep,
            ad.keep_mask(x.shape, rate, rng, train_mode)))
        x = ad.add(x, ad.feed_forward(
            ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"]), layer["w1"],
            layer["b1"], layer["w2"], layer["b2"],
            ad.keep_mask(x.shape, rate, rng, train_mode)))
    # x is the state row alone once a final block ran without positions
    e_l = ad.reshape(x if x.shape[1] == 1 else ad.narrow(x, 1, state_row, 1),
                     (b, d))
    return e_l, ad.narrow(x, 1, 1, c) if positions else None
