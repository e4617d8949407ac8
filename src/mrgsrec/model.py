"""Full parameter set and the forward passes shared by training and evaluation."""

from __future__ import annotations

from copy import deepcopy
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .embeddings import (EmbeddingTables, SequenceBatch, embed_sequence,
                         init_tables, load_arrays, save_arrays)
from .errors import ParseError
from .fusion import FusionParams, fuse, init_fusion_params, score_items
from .graph import NormalizedAdjacency, gather_batch, propagated_embeddings
from .losses import LossWeights
from .seqenc import SeqEncoderConfig, SeqEncoderParams, init_seq_params, seq_encode


@dataclass
class ModelParams:
    """Every learnable tensor: embedding tables, encoder stack, fusion block."""

    tables: EmbeddingTables
    encoder: SeqEncoderParams
    fusion: FusionParams
    seq_config: SeqEncoderConfig

    def named(self) -> dict[str, ad.Tensor]:
        out = {
            "tables.user": self.tables.user,
            "tables.item": self.tables.item,
            "tables.positional": self.tables.positional,
        }
        out.update(self.encoder.named())
        out.update(self.fusion.named())
        return out

    def parameters(self) -> list[ad.Tensor]:
        return list(self.named().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def copy(self) -> "ModelParams":
        """Independent copy of every block's values, with no gradients."""
        clone = deepcopy(self)
        clone.zero_grad()
        return clone


def init_model(n_users: int, n_items: int, c: int,
               seq_config: SeqEncoderConfig, seed: int) -> ModelParams:
    """Seeded initialization of all parameter blocks."""
    tables = init_tables(n_users, n_items, c, seq_config.d, seed)
    encoder = init_seq_params(seq_config, seed + 1)
    fusion = init_fusion_params(seq_config.d, seed + 2)
    return ModelParams(tables, encoder, fusion, seq_config)


@dataclass
class ForwardStates:
    """Per-batch encoder outputs; entries are None when a path was skipped."""

    e_l: ad.Tensor | None = None
    E_l: ad.Tensor | None = None
    e_g: ad.Tensor | None = None
    E_g: ad.Tensor | None = None
    e_f: ad.Tensor | None = None
    node_embeddings: ad.Tensor | None = None
    initial_nodes: ad.Tensor | None = None


def encoder_paths(head: str, weights: LossWeights | None = None
                  ) -> tuple[bool, bool, bool]:
    """(need_seq, need_graph, need_fused): the encoder paths that the scoring
    head and the losses with a non-zero weight read. Evaluation passes no
    weights, so only the head counts."""
    w = weights or LossWeights(0.0, 0.0, 0.0, 0.0)
    need_fused = w.gamma > 0 or head == "fused"
    need_seq = w.alpha > 0 or w.delta > 0 or need_fused or head == "sequential"
    need_graph = w.beta > 0 or w.delta > 0 or need_fused or head == "graph"
    return need_seq, need_graph, need_fused


def forward_states(params: ModelParams, batch: SequenceBatch,
                   adjacency: NormalizedAdjacency | None, k: int,
                   need_seq: bool = True, need_graph: bool = True,
                   need_fused: bool = True, layer_mean: bool = False,
                   train_mode: bool = False,
                   rng: np.random.Generator | None = None,
                   node_embeddings: ad.Tensor | None = None) -> ForwardStates:
    """Run the requested encoder paths for one batch.

    The graph path re-propagates from the current tables so gradients reach
    them; ``initial_nodes`` exposes the layer-0 matrix for regularization.
    A caller whose tables do not change between batches (evaluation) may
    pass the propagated ``node_embeddings`` once computed; the graph path
    then only gathers from them and ``initial_nodes`` stays None.
    """
    states = ForwardStates()
    if need_seq or need_fused:
        e_u, E_u = embed_sequence(batch, params.tables)
        states.e_l, states.E_l = seq_encode(
            e_u, E_u, params.encoder, params.seq_config,
            batch.valid_lengths, train_mode=train_mode, rng=rng)
    if need_graph or need_fused:
        if node_embeddings is None:
            if adjacency is None:
                raise ValueError("graph path requested without an adjacency")
            states.initial_nodes = ad.concat(
                [params.tables.user, params.tables.item_rows()], axis=0)
            node_embeddings = propagated_embeddings(
                params.tables, adjacency, k, layer_mean=layer_mean,
                initial=states.initial_nodes)
        states.node_embeddings = node_embeddings
        states.e_g, states.E_g = gather_batch(
            states.node_embeddings, batch,
            params.tables.n_users, params.tables.n_items)
    if need_fused:
        states.e_f = fuse(states.e_l, states.e_g, params.fusion)
    return states


def score_batch(params: ModelParams, states: ForwardStates, head: str) -> ad.Tensor:
    """(B, N) full-catalog scores from the selected head embedding."""
    chosen = {"fused": states.e_f, "sequential": states.e_l,
              "graph": states.e_g}.get(head)
    if chosen is None:
        raise ValueError(f"scoring head {head!r} unavailable or unknown")
    return score_items(chosen, params.tables.item_rows())


def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    """Persist all parameter blocks plus the hyper-parameter header."""
    arrays = {name: t.data for name, t in params.named().items()}
    t = params.tables
    meta = dict(meta)
    meta["model"] = {"n_users": t.n_users, "n_items": t.n_items, "c": t.c,
                     **asdict(params.seq_config)}
    save_arrays(path, arrays, meta)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Rebuild the model a checkpoint describes; every parameter block must
    be present with its exact shape, or the file is rejected."""
    arrays, meta = load_arrays(path)
    try:
        spec = dict(meta["model"])
        sizes = (spec.pop("n_users"), spec.pop("n_items"), spec.pop("c"))
        params = init_model(*sizes, SeqEncoderConfig(**spec), seed=0)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad checkpoint model header ({exc!r})") from exc
    named = params.named()
    if set(arrays) != set(named):
        raise ParseError(
            f"{path}: parameter blocks missing {sorted(set(named) - set(arrays))}, "
            f"unexpected {sorted(set(arrays) - set(named))}")
    for name, tensor in named.items():
        if arrays[name].shape != tensor.shape:
            raise ParseError(f"{path}: block {name!r} has shape "
                             f"{arrays[name].shape}, expected {tensor.shape}")
        tensor.data[...] = arrays[name]
    return params, meta
