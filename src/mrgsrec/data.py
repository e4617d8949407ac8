"""Interaction-log ingestion, minimum-count filtering, and leave-one-out splits.

The pipeline is: ``load_interactions`` -> ``min_count_filter`` ->
``drop_short_users`` -> ``chronological_split``. Every step returns a new
immutable-ish value; nothing mutates its input. Dataset snapshots are
versioned text files starting with the magic line ``MRGS-DATA-v1``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import DataError, ParseError

SNAPSHOT_MAGIC = "MRGS-DATA-v1"
MIN_USER_LENGTH = 3  # one train item plus the validation and test targets
MIN_COUNT = 5  # prepare's default user and item minimum-count threshold
FILTER_MODES = ("fixpoint", "single_pass")  # the first is the default


@dataclass(frozen=True)
class RawInteraction:
    user: str
    item: str
    timestamp: int


@dataclass
class InteractionLog:
    """Ordered interaction records plus contiguous user/item index maps."""

    interactions: list[RawInteraction]
    user_index: dict[str, int]
    item_index: dict[str, int]

    @property
    def n_users(self) -> int:
        return len(self.user_index)

    @property
    def n_items(self) -> int:
        return len(self.item_index)

    @property
    def n_interactions(self) -> int:
        return len(self.interactions)


@dataclass
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_length: float


def _per(count: str, ids_below: str = "", nested: bool = False, **kwargs):
    """A list field with one entry per ``count``: with ``ids_below``, an item
    id below that count, or with ``nested`` a non-empty list of them."""
    return field(metadata={"per": count, "ids_below": ids_below,
                           "nested": nested}, **kwargs)


@dataclass
class SplitDataset:
    """Per-user chronological sequences under leave-one-out.

    ``train[u] + [val[u], test[u]]`` reproduces user u's full sorted sequence.
    """

    n_users: int
    n_items: int
    train: list[list[int]] = _per("n_users", "n_items", nested=True)
    val: list[int] = _per("n_users", "n_items")
    test: list[int] = _per("n_users", "n_items")
    user_tokens: list[str] = _per("n_users", default_factory=list)
    item_tokens: list[str] = _per("n_items", default_factory=list)


def _index_tokens(interactions: list[RawInteraction]) -> InteractionLog:
    """Assign contiguous ids in first-appearance order."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    for rec in interactions:
        if rec.user not in user_index:
            user_index[rec.user] = len(user_index)
        if rec.item not in item_index:
            item_index[rec.item] = len(item_index)
    return InteractionLog(interactions, user_index, item_index)


def load_interactions(path: str | Path, delimiter: str | None = None) -> InteractionLog:
    """Parse a delimited text file of (user, item, timestamp) records.

    ``delimiter=None`` splits on any whitespace. Four-column records
    (user, item, rating, timestamp) are accepted with the rating ignored,
    since all interactions count as positives. Raises ParseError with the
    offending line number on malformed input, DataError on an empty file.
    """
    path = Path(path)
    interactions: list[RawInteraction] = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(delimiter)
                if len(fields) == 3:
                    user, item, ts_text = fields
                elif len(fields) == 4:
                    user, item, _rating, ts_text = fields
                else:
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
                if not user or not item:
                    raise ParseError(f"{path}:{lineno}: empty user or item token")
                try:
                    ts = int(float(ts_text))
                except ValueError as exc:
                    raise ParseError(
                        f"{path}:{lineno}: bad timestamp {ts_text!r}") from exc
                if ts < 0:
                    raise ParseError(f"{path}:{lineno}: negative timestamp {ts}")
                interactions.append(RawInteraction(user, item, ts))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not interactions:
        raise DataError(f"{path}: no interactions found")
    return _index_tokens(interactions)


def min_count_filter(log: InteractionLog, threshold: int,
                     mode: str = FILTER_MODES[0]) -> InteractionLog:
    """Drop users and items with fewer than ``threshold`` interactions.

    ``mode="fixpoint"`` repeats the sweep until stable (removals can push
    other entities under the threshold); ``mode="single_pass"`` applies one
    simultaneous sweep against the original counts. Surviving indices are
    re-compacted in first-appearance order.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}")
    records = log.interactions
    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for rec in records:
            user_counts[rec.user] = user_counts.get(rec.user, 0) + 1
            item_counts[rec.item] = item_counts.get(rec.item, 0) + 1
        kept = [rec for rec in records
                if user_counts[rec.user] >= threshold
                and item_counts[rec.item] >= threshold]
        stable = len(kept) == len(records)
        records = kept
        if not records:
            raise DataError(f"no interactions survive threshold {threshold}")
        if stable or mode == "single_pass":
            break
    return _index_tokens(records)


def drop_short_users(log: InteractionLog) -> tuple[InteractionLog, int]:
    """Remove users too short to supply validation and test targets.

    Returns the compacted log and the number of dropped users.
    """
    counts: dict[str, int] = {}
    for rec in log.interactions:
        counts[rec.user] = counts.get(rec.user, 0) + 1
    dropped = sum(1 for n in counts.values() if n < MIN_USER_LENGTH)
    if dropped == 0:
        return log, 0
    kept = [rec for rec in log.interactions if counts[rec.user] >= MIN_USER_LENGTH]
    if not kept:
        raise DataError(f"no users have >= {MIN_USER_LENGTH} interactions")
    return _index_tokens(kept), dropped


def chronological_split(log: InteractionLog) -> SplitDataset:
    """Sort each user's sequence by timestamp (stable on record order) and
    peel off the last item as test target, the second-to-last as validation.

    Every user needs ``MIN_USER_LENGTH`` interactions; see ``drop_short_users``.
    """
    per_user: list[list[tuple[int, int]]] = [[] for _ in range(log.n_users)]
    for rec in log.interactions:
        u = log.user_index[rec.user]
        per_user[u].append((rec.timestamp, log.item_index[rec.item]))
    train: list[list[int]] = []
    val: list[int] = []
    test: list[int] = []
    for u, events in enumerate(per_user):
        if len(events) < MIN_USER_LENGTH:
            raise DataError(f"user id {u} has {len(events)} interactions; "
                            f"need >= {MIN_USER_LENGTH} to split")
        events.sort(key=lambda pair: pair[0])  # stable: ties keep record order
        items = [item for _, item in events]
        train.append(items[:-2])
        val.append(items[-2])
        test.append(items[-1])
    user_tokens = sorted(log.user_index, key=log.user_index.get)
    item_tokens = sorted(log.item_index, key=log.item_index.get)
    return SplitDataset(log.n_users, log.n_items, train, val, test,
                        user_tokens, item_tokens)


def compute_stats(log: InteractionLog) -> DatasetStats:
    if log.n_interactions == 0:
        raise DataError("cannot compute stats of an empty log")
    return DatasetStats(
        n_users=log.n_users,
        n_items=log.n_items,
        n_interactions=log.n_interactions,
        avg_length=log.n_interactions / log.n_users,
    )


def save_snapshot(path: str | Path, dataset: SplitDataset, stats: DatasetStats,
                  fingerprint: str, extra: dict | None = None) -> None:
    """Write a dataset snapshot that passes the reader's rule (else ParseError,
    and nothing is written); reruns with identical inputs are byte-identical."""
    payload = {**asdict(dataset), "stats": asdict(stats),
               "fingerprint": fingerprint}
    if extra:
        payload["extra"] = extra
    _check_payload(path, payload)
    text = SNAPSHOT_MAGIC + "\n" + json.dumps(
        payload, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _check_payload(path, payload) -> None:
    """Reject a snapshot payload that would load only partly or break later:
    a ``SplitDataset`` or ``DatasetStats`` field missing, a value that breaks
    its field's rule (counts, declared first, are positive integers), or
    stats that differ from the dataset's own counts (each user's train
    sequence plus its two held-out items)."""
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: snapshot payload is not a JSON object")
    stats = payload.get("stats")
    missing = sorted({f.name for f in fields(SplitDataset)} - payload.keys()) + [
        f"stats.{f.name}" for f in fields(DatasetStats)
        if not isinstance(stats, dict) or f.name not in stats]
    if missing:
        raise ParseError(f"{path}: snapshot is missing keys {missing}")
    for f in fields(SplitDataset):
        value, rule = payload[f.name], f.metadata
        if not rule:
            if type(value) is not int or value < 1:
                raise ParseError(f"{path}: {f.name!r} must be a positive integer")
            continue
        want = payload[rule["per"]]
        if not isinstance(value, list) or len(value) != want:
            raise ParseError(f"{path}: {f.name!r} must be a list of {want} entries")
        if rule["nested"]:
            if not all(isinstance(seq, list) and seq for seq in value):
                raise ParseError(f"{path}: {f.name!r} entries must be non-empty lists")
            value = [i for seq in value for i in seq]
        bound = rule["ids_below"] and payload[rule["ids_below"]]
        if bound and not all(type(i) is int and 0 <= i < bound for i in value):
            raise ParseError(f"{path}: item ids must be integers in [0, {bound})")
    n = sum(len(seq) + 2 for seq in payload["train"])
    implied = asdict(DatasetStats(payload["n_users"], payload["n_items"], n,
                                  n / payload["n_users"]))
    if any(type(stats[k]) is not type(v) or stats[k] != v
           for k, v in implied.items()):
        raise ParseError(f"{path}: stats must be {implied}, what the dataset "
                         "implies")


def load_snapshot(path: str | Path) -> tuple[SplitDataset, DatasetStats, dict]:
    """Read a snapshot written by ``save_snapshot``; returns (dataset, stats, meta).

    The payload is validated whole before anything is built from it; a
    malformed one raises ParseError. Unknown keys are ignored.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
        header, _, body = raw.partition("\n")
        if header != SNAPSHOT_MAGIC:
            raise ParseError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not UTF-8 JSON text ({exc})") from exc
    _check_payload(path, payload)
    dataset = SplitDataset(**{f.name: payload[f.name] for f in fields(SplitDataset)})
    stats = DatasetStats(**{f.name: payload["stats"][f.name]
                            for f in fields(DatasetStats)})
    meta = {key: payload.get(key) for key in ("fingerprint", "extra")}
    return dataset, stats, meta


def prepare(path: str | Path, threshold: int = MIN_COUNT,
            mode: str = FILTER_MODES[0], delimiter: str | None = None
            ) -> tuple[SplitDataset, DatasetStats, int]:
    """Full preprocessing pipeline: load, filter, drop short users, split.

    Returns (split dataset, post-filter stats, dropped-short-user count).
    """
    log = load_interactions(path, delimiter=delimiter)
    log = min_count_filter(log, threshold, mode=mode)
    log, dropped = drop_short_users(log)
    stats = compute_stats(log)
    return chronological_split(log), stats, dropped
