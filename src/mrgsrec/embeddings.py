"""Learnable user/item/positional embedding tables and sequence assembly.

The item table carries one extra trailing row (index ``n_items``) used as
the padding slot; it is initialized to zero and the trainer keeps its
gradient pinned at zero. Windows are left-padded so the most recent item
always occupies the final slot.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import DataError, ParseError

CHECKPOINT_MAGIC = b"MRGS-CKPT-v1"


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
    user_ids: np.ndarray       # (B,) int
    item_windows: np.ndarray   # (B, c) int, left-padded with padding_id
    valid_lengths: np.ndarray  # (B,) int

    def valid_mask(self) -> np.ndarray:
        """(B, c) bool; True where the slot holds a real item (right-aligned)."""
        c = self.item_windows.shape[1]
        slots = np.arange(c)[None, :]
        return slots >= (c - self.valid_lengths[:, None])


def init_tables(n_users: int, n_items: int, c: int, d: int, seed: int) -> EmbeddingTables:
    """Draw all tables i.i.d. normal(0, 0.02); the padding row is zeroed."""
    if min(n_users, n_items, c, d) < 1:
        raise ValueError("all table dimensions must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    user = rng.normal(0.0, 0.02, size=(n_users, d))
    item = rng.normal(0.0, 0.02, size=(n_items + 1, d))
    item[n_items, :] = 0.0
    positional = rng.normal(0.0, 0.02, size=(c, d))
    return EmbeddingTables(ad.parameter(user), ad.parameter(item),
                           ad.parameter(positional), n_users, n_items, c, d)


def truncate_window(sequence: list[int], c: int, pad_value: int,
                    allow_empty: bool = False) -> tuple[list[int], int]:
    """Keep the last min(len, c) items right-aligned in a length-c window."""
    if c < 1:
        raise ValueError("window length must be >= 1")
    if not sequence and not allow_empty:
        raise DataError("cannot build a window from an empty sequence")
    tail = list(sequence[-c:])
    return [pad_value] * (c - len(tail)) + tail, len(tail)


def build_batch(user_ids: list[int], sequences: list[list[int]],
                c: int, pad_value: int) -> SequenceBatch:
    """Stack per-user windows into one SequenceBatch."""
    windows, lengths = [], []
    for seq in sequences:
        window, length = truncate_window(seq, c, pad_value)
        windows.append(window)
        lengths.append(length)
    return SequenceBatch(np.asarray(user_ids, dtype=np.int64),
                         np.asarray(windows, dtype=np.int64),
                         np.asarray(lengths, dtype=np.int64))


def _check_ids(ids: np.ndarray, limit: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        raise IndexError(f"{what} id out of range [0, {limit})")


def embed_sequence(batch: SequenceBatch, tables: EmbeddingTables
                   ) -> tuple[ad.Tensor, ad.Tensor]:
    """Gather user embeddings and positional-enriched item windows.

    Returns (e_u of shape (B, d), E_u of shape (B, c, d)). Positional rows
    are added at valid slots only; padding slots carry the bare padding row.
    """
    _check_ids(batch.user_ids, tables.n_users, "user")
    _check_ids(batch.item_windows, tables.n_items + 1, "item")
    e_u = ad.lookup(tables.user, batch.user_ids)
    items = ad.lookup(tables.item, batch.item_windows)
    mask = batch.valid_mask().astype(np.float64)[:, :, None]
    pos = ad.mul(ad.reshape(tables.positional, (1, tables.c, tables.d)), mask)
    return e_u, ad.add(items, pos)


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Versioned binary dump: magic line, JSON header, row-major float64 blobs."""
    names = list(arrays)
    header = {
        "meta": meta,
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a dump written by ``save_arrays``; returns (arrays, meta).

    The file must hold exactly the bytes its header describes: a truncated
    file or one with trailing bytes is rejected with ParseError.
    """
    raw = Path(path).read_bytes()
    magic = CHECKPOINT_MAGIC + b"\n"
    if not raw.startswith(magic):
        raise ParseError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} file")
    try:
        (header_len,) = struct.unpack_from("<Q", raw, len(magic))
        offset = len(magic) + 8 + header_len
        header = json.loads(raw[len(magic) + 8:offset].decode("utf-8"))
        entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        meta = header["meta"]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: unreadable checkpoint header ({exc!r})") from exc
    names = [name for name, _ in entries]
    if len(set(names)) != len(names) or not all(
            isinstance(n, int) and n >= 0 for _, shape in entries for n in shape):
        raise ParseError(f"{path}: repeated block names or invalid shapes")
    expected = offset + 8 * sum(math.prod(shape) for _, shape in entries)
    if len(raw) != expected:
        raise ParseError(f"{path}: {len(raw)} bytes, header describes {expected}")
    arrays = {}
    for name, shape in entries:
        arrays[name] = np.frombuffer(raw, np.float64, math.prod(shape),
                                     offset).reshape(shape).copy()
        offset += 8 * math.prod(shape)
    return arrays, meta
