"""Learnable user/item/positional embedding tables and sequence assembly.

The item table carries one extra trailing row (index ``n_items``) used as
the padding slot; it is initialized to zero and no gradient reaches it:
padding slots are masked out as attention keys, no loss reads them, and
``ad.lookup``'s scatter sums from +0.0, so the row's gradient is exactly
+0.0. ``ad.lookup`` reads its ids through the gate ``ad.check_ids``.
Windows are left-padded so the most recent item always occupies the final
slot. ``flatten`` is the one place per-user item lists become arrays (their
lengths, and the items end to end); ``window_batch`` indexes that layout
for all windows at once, and ``build_batch`` is it on a list of sequences.
The tables are saved and loaded with the rest of the model by
``mrgsrec.model.save_checkpoint`` / ``load_checkpoint``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import autodiff as ad
from .errors import DataError

INIT_STD = 0.02  # std of every initial normal draw, seqenc's weights too


@dataclass
class EmbeddingTables:
    user: ad.Tensor        # (M, d)
    item: ad.Tensor        # (N + 1, d); last row is padding
    positional: ad.Tensor  # (c, d)
    n_users: int
    n_items: int
    c: int
    d: int

    @property
    def padding_id(self) -> int:
        return self.n_items

    def item_rows(self) -> ad.Tensor:
        """Real item rows, padding excluded; use this for scoring and the graph."""
        return ad.narrow(self.item, 0, 0, self.n_items)


@dataclass
class SequenceBatch:
    user_ids: np.ndarray       # (B,) as given; every read passes ad.check_ids
    item_windows: np.ndarray   # (B, c) int, left-padded with padding_id
    valid_lengths: np.ndarray  # (B,) int

    def valid_mask(self) -> np.ndarray:
        """(B, c) bool; True where the slot holds a real item (right-aligned)."""
        c = self.item_windows.shape[1]
        slots = np.arange(c)[None, :]
        return slots >= (c - self.valid_lengths[:, None])


def init_tables(n_users: int, n_items: int, c: int, d: int, seed: int) -> EmbeddingTables:
    """Draw all tables i.i.d. normal(0, INIT_STD); the padding row is zeroed."""
    if min(n_users, n_items, c, d) < 1:
        raise ValueError("all table dimensions must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    user = rng.normal(0.0, INIT_STD, size=(n_users, d))
    item = rng.normal(0.0, INIT_STD, size=(n_items + 1, d))
    item[n_items, :] = 0.0
    positional = rng.normal(0.0, INIT_STD, size=(c, d))
    return EmbeddingTables(ad.parameter(user), ad.parameter(item),
                           ad.parameter(positional), n_users, n_items, c, d)


def flatten(sequences: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, items): each sequence's length, and all items end to end.
    Each item passes ``operator.index``: a non-integer one (a float, say)
    raises IndexError, as ``ad.check_ids`` does; a bool passes as 0 or 1."""
    lengths = np.fromiter(map(len, sequences), np.int64, len(sequences))
    try:
        items = np.fromiter(map(operator.index, chain.from_iterable(sequences)),
                            np.int64, lengths.sum())
    except TypeError as exc:
        raise IndexError(f"item ids must be integers: {exc}") from None
    return lengths, items


def build_batch(user_ids: list[int], sequences: list[list[int]],
                c: int, pad_value: int) -> SequenceBatch:
    """Stack each sequence's last min(len, c) items, left-padded to c."""
    return window_batch(user_ids, *flatten(sequences), c, pad_value)


def window_batch(user_ids, lengths: np.ndarray, items: np.ndarray,
                 c: int, pad_value: int) -> SequenceBatch:
    """``build_batch`` on the flat layout: sequence i is ``lengths[i]`` items
    of ``items``, following sequence i - 1's."""
    if c < 1:
        raise ValueError("window length must be >= 1")
    if not lengths.all():
        raise DataError("cannot build a window from an empty sequence")
    ends = np.cumsum(lengths)
    slots = ends[:, None] - c + np.arange(c)   # flat index of each window slot
    valid = slots >= (ends - lengths)[:, None]
    windows = np.full(slots.shape, pad_value, dtype=np.int64)
    windows[valid] = items[slots[valid]]
    return SequenceBatch(np.asarray(user_ids), windows,
                         np.minimum(lengths, c))


def embed_sequence(batch: SequenceBatch, tables: EmbeddingTables
                   ) -> tuple[ad.Tensor, ad.Tensor]:
    """Gather user embeddings and positional-enriched item windows.

    Returns (e_u of shape (B, d), E_u of shape (B, c, d)). Positional rows
    are added at valid slots only; padding slots carry the bare padding row.
    """
    e_u = ad.lookup(tables.user, batch.user_ids)
    items = ad.lookup(tables.item, batch.item_windows)
    mask = batch.valid_mask().astype(np.float64)[:, :, None]
    pos = ad.mul(ad.reshape(tables.positional, (1, tables.c, tables.d)), mask)
    return e_u, ad.add(items, pos)

