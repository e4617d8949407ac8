"""Full parameter set, what a pass builds (``encoder_paths``), the forward
passes shared by training and evaluation, and the checkpoint format."""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from copy import deepcopy
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .embeddings import EmbeddingTables, SequenceBatch, embed_sequence, init_tables
from .errors import ParseError
from .fusion import FusionParams, fuse, init_fusion_params, score_items
from .graph import NormalizedAdjacency, gather_users, propagated_embeddings
from .losses import LossWeights
from .seqenc import SeqEncoderConfig, SeqEncoderParams, init_seq_params, seq_encode

CHECKPOINT_MAGIC = b"MRGS-CKPT-v1\n"

# Each scoring head and the ``ForwardStates`` field it scores from.
HEAD_STATES = {"fused": "e_f", "sequential": "e_l", "graph": "e_g"}
SCORING_HEADS = tuple(HEAD_STATES)


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


def n_values(n_users: int, n_items: int, c: int,
             seq_config: SeqEncoderConfig) -> int:
    """How many values ``init_model`` allocates for these sizes, found
    without allocating any: the tables (with the padding row), each encoder
    layer and the fusion block."""
    d, d_ff = seq_config.d, seq_config.d_ff
    layer = 4 * d * d + 2 * d * d_ff + d_ff + 5 * d
    return ((n_users + n_items + 1 + c) * d + seq_config.n_layers * layer
            + 12 * d * d)


@dataclass
class ForwardStates:
    """Per-batch encoder outputs; entries are None when a path was skipped.
    The contrastive loss gathers ``E_g`` itself (``graph.gather_windows``)."""

    e_l: ad.Tensor | None = None
    E_l: ad.Tensor | None = None
    e_g: ad.Tensor | None = None
    e_f: ad.Tensor | None = None
    node_embeddings: ad.Tensor | None = None
    initial_nodes: ad.Tensor | None = None
    # Sorted node ids held by ``node_embeddings``' rows; None: all M+N.
    node_rows: np.ndarray | None = None


def encoder_paths(head: str, weights: LossWeights | None = None
                  ) -> dict[str, bool]:
    """``forward_states``' path arguments for a pass: the encoder paths that
    the scoring head and the losses with a non-zero weight read (the fused
    path needs both encoders), and ``positions``, whether such a loss reads
    the sequence path's per-position output ``E_l``. Evaluation passes no
    weights, so only the head counts and user states alone are built."""
    w = weights or LossWeights(0.0, 0.0, 0.0, 0.0)
    positions = w.alpha > 0 or w.delta > 0
    fused = w.gamma > 0 or head == "fused"
    return {"need_seq": positions or fused or head == "sequential",
            "need_graph": w.beta > 0 or w.delta > 0 or fused or head == "graph",
            "need_fused": fused, "positions": positions}


def forward_states(params: ModelParams, batch: SequenceBatch,
                   adjacency: NormalizedAdjacency | None, k: int,
                   need_seq: bool = True, need_graph: bool = True,
                   need_fused: bool = True, layer_mean: bool = False,
                   train_mode: bool = False,
                   rng: np.random.Generator | None = None,
                   node_embeddings: ad.Tensor | None = None,
                   positions: bool = True,
                   node_rows: np.ndarray | None = None) -> ForwardStates:
    """Run the encoder paths that ``encoder_paths`` requests for one batch.

    The graph path re-propagates from the current tables so gradients reach
    them; ``initial_nodes`` exposes the layer-0 matrix for regularization.
    It propagates only the batch's users and the caller's extra node ids
    ``node_rows`` (the rows its losses read); ``states.node_rows`` records
    that sorted set, and ``graph.node_positions`` maps node ids into it.
    It gathers the user rows ``e_g`` alone.
    A caller whose tables do not change between batches (evaluation) may
    pass the propagated ``node_embeddings`` once computed, a table whose
    row i is node i; the graph path then only gathers from it and
    ``initial_nodes`` and ``node_rows`` stay None.
    ``positions`` concerns the sequence path alone: off, it builds the user
    states alone (see ``seqenc.seq_encode``) and ``E_l`` stays None.
    """
    states = ForwardStates()
    if need_seq:
        e_u, E_u = embed_sequence(batch, params.tables)
        states.e_l, states.E_l = seq_encode(
            e_u, E_u, params.encoder, params.seq_config,
            batch.valid_lengths, train_mode=train_mode, rng=rng,
            positions=positions)
    if need_graph:
        if node_embeddings is None:
            if adjacency is None:
                raise ValueError("graph path requested without an adjacency")
            extra = () if node_rows is None else np.ravel(node_rows)
            states.node_rows = np.unique(
                np.concatenate([batch.user_ids, extra]).astype(np.int64))
            states.initial_nodes = ad.concat(
                [params.tables.user, params.tables.item_rows()], axis=0)
            node_embeddings = propagated_embeddings(
                params.tables, adjacency, k, layer_mean=layer_mean,
                initial=states.initial_nodes, rows=states.node_rows)
        states.node_embeddings = node_embeddings
        states.e_g = gather_users(node_embeddings, batch,
                                  params.tables.n_users, states.node_rows)
    if need_fused:
        states.e_f = fuse(states.e_l, states.e_g, params.fusion)
    return states


def score_batch(params: ModelParams, states: ForwardStates, head: str) -> ad.Tensor:
    """(B, N) full-catalog scores from the selected head embedding."""
    chosen = getattr(states, HEAD_STATES.get(head, ""), None)
    if chosen is None:
        raise ValueError(f"scoring head {head!r} unavailable or unknown")
    return score_items(chosen, params.tables.item_rows())


def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    """Persist all parameter blocks plus the hyper-parameter header.

    Layout: the ``CHECKPOINT_MAGIC`` line, the header length as a
    little-endian u64, the sorted-key JSON header (``meta`` with the model
    header under ``"model"``, each block's name and shape, and the sha256 of
    all block bytes), then each block's little-endian float64 values,
    row-major, in ``params.named()`` order. A ``meta`` that ``load_checkpoint``
    would reject raises ParseError, and nothing is written.
    """
    t = params.tables
    meta = {**_checked_meta(path, meta),
            "model": {"n_users": t.n_users, "n_items": t.n_items, "c": t.c,
                      **asdict(params.seq_config)}}
    named = params.named()
    blocks = b"".join(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
                      for tensor in named.values())
    header = json.dumps(
        {"meta": meta, "arrays": [{"name": name, "shape": list(tensor.shape)}
                                  for name, tensor in named.items()],
         "sha256": hashlib.sha256(blocks).hexdigest()},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(blocks)


def _checked_meta(path, meta) -> dict:
    """``meta``, or ParseError unless its ``config`` is an object or null and
    its ``fingerprint`` a string, as ``eval`` reads them."""
    if not (isinstance(meta, dict) and isinstance(meta.get("fingerprint", ""), str)
            and isinstance(meta.get("config"), (dict, type(None)))):
        raise ParseError(f"{path}: checkpoint meta needs an object or null "
                         "'config' and a string 'fingerprint'")
    return meta


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Rebuild the model a checkpoint describes; returns (params, meta).

    The meta must pass ``_checked_meta``, the file must hold exactly the
    bytes of the model its header describes (checked before it is built),
    the header's (name, shape) block list must equal the rebuilt model's,
    and the block bytes' sha256 must equal the header's (files older than
    the checksum have none); else ParseError, before any block is copied.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ParseError(f"{path}: not a {CHECKPOINT_MAGIC.decode().strip()} file")
    offset = len(CHECKPOINT_MAGIC) + 8
    try:
        (header_len,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
        meta = _checked_meta(path, header["meta"])
        blocks = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        spec = dict(meta["model"])
        sizes = (spec.pop("n_users"), spec.pop("n_items"), spec.pop("c"))
        seq_config = SeqEncoderConfig(**spec)
        offset += header_len
        size = offset + 8 * n_values(*sizes, seq_config)
        if len(raw) != size:
            raise ParseError(f"{path}: {len(raw)} bytes, header describes {size}")
        params = init_model(*sizes, seq_config, seed=0)
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: unreadable checkpoint header ({exc!r})") from exc
    named = params.named()
    expected = [(name, tensor.shape) for name, tensor in named.items()]
    if blocks != expected:
        got, want = next((g, w) for g, w in itertools.zip_longest(blocks, expected)
                         if g != w)
        raise ParseError(f"{path}: block list differs from the model's: "
                         f"{got or 'no block'} where {want or 'no block'} "
                         "is expected")
    if ("sha256" in header and header["sha256"]
            != hashlib.sha256(memoryview(raw)[offset:]).hexdigest()):
        raise ParseError(f"{path}: block bytes do not match the header's sha256")
    for tensor in named.values():
        tensor.data[...] = np.frombuffer(raw, "<f8", tensor.data.size,
                                         offset).reshape(tensor.shape)
        offset += 8 * tensor.data.size
    return params, meta
