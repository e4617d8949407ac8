"""Fusion of local and global user states into the fused state e_f.

The fusion block is bias-free by design: concat to 2d, project to 4d,
ReLU, project back to d: ``ad.feed_forward`` with zero biases. Keeping it
bias-free preserves positive homogeneity, which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

# ``init_fusion_params``' share of e_g in e_f and its weight-noise scale.
INIT_MIX, INIT_NOISE = 0.005, 0.01


@dataclass
class FusionParams:
    w1: ad.Tensor  # (4d, 2d)
    w2: ad.Tensor  # (d, 4d)

    def named(self) -> dict[str, ad.Tensor]:
        return {"fusion.w1": self.w1, "fusion.w2": self.w2}


def init_fusion_params(d: int, seed: int) -> FusionParams:
    """Near-identity initialization: e_f starts as e_l + INIT_MIX * e_g.

    A bias-free ReLU pair represents identity exactly (relu(x) - relu(-x)),
    so the fused head opens at the quality of the local state instead of
    collapsing everything to near-zero scores; ``INIT_NOISE`` keeps every
    weight trainable.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    eye = np.eye(d)
    w1 = np.zeros((4 * d, 2 * d))
    w1[0 * d:1 * d, :d] = eye
    w1[1 * d:2 * d, :d] = -eye
    w1[2 * d:3 * d, d:] = eye
    w1[3 * d:4 * d, d:] = -eye
    w2 = np.zeros((d, 4 * d))
    w2[:, 0 * d:1 * d] = eye
    w2[:, 1 * d:2 * d] = -eye
    w2[:, 2 * d:3 * d] = INIT_MIX * eye
    w2[:, 3 * d:4 * d] = -INIT_MIX * eye
    w1 += rng.normal(0.0, INIT_NOISE, w1.shape)
    w2 += rng.normal(0.0, INIT_NOISE, w2.shape)
    return FusionParams(w1=ad.parameter(w1), w2=ad.parameter(w2))


def fuse(e_l: ad.Tensor, e_g: ad.Tensor, params: FusionParams) -> ad.Tensor:
    """e_f = W2 ReLU(W1 [e_l ; e_g]); shapes (B, d) throughout."""
    if e_l.shape != e_g.shape:
        raise DimensionError(f"local {e_l.shape} vs global {e_g.shape}")
    d = e_l.shape[-1]
    if params.w1.shape != (4 * d, 2 * d) or params.w2.shape != (d, 4 * d):
        raise DimensionError("fusion projection shapes do not match d")
    return ad.feed_forward(ad.concat([e_l, e_g], axis=-1), params.w1, 0.0,
                           params.w2, 0.0)
