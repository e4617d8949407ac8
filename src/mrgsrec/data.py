"""Interaction-log ingestion, minimum-count filtering, and leave-one-out splits.

The pipeline is: ``load_interactions`` -> ``min_count_filter`` ->
``drop_short_users`` -> ``chronological_split``. The first three take and
return plain lists of ``RawInteraction`` records and never mutate their
input; ``chronological_split`` assigns the contiguous user and item ids,
once, on the final records. ``leave_one_out`` is the one split rule: the
synthetic and verification generators call it too. Dataset snapshots are
versioned text files starting with the magic line ``MRGS-DATA-v1``; their
``stats`` are what ``dataset_stats`` derives from the dataset.
"""

from __future__ import annotations

import json
from collections import Counter
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
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_length: float


def _per(count: str, entries: str | type, nested: bool = False, **kwargs):
    """A list field with one entry per ``count``: each an item id below the
    count named by ``entries``, or a token when ``entries`` is ``str``; with
    ``nested``, a non-empty list of them."""
    return field(metadata={"per": count, "entries": entries, "nested": nested},
                 **kwargs)


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
    user_tokens: list[str] = _per("n_users", str, default_factory=list)
    item_tokens: list[str] = _per("n_items", str, default_factory=list)


def dataset_stats(dataset: SplitDataset) -> DatasetStats:
    """The counts a dataset implies: each user's train sequence plus its two
    held-out items."""
    n = sum(len(seq) + 2 for seq in dataset.train)
    return DatasetStats(dataset.n_users, dataset.n_items, n, n / dataset.n_users)


def load_interactions(path: str | Path, delimiter: str | None = None
                      ) -> list[RawInteraction]:
    """Parse a delimited text file of (user, item, timestamp) records.

    ``delimiter=None`` splits on any whitespace; an empty delimiter raises
    ParseError. Four-column records (user, item, rating, timestamp) are
    accepted with the rating ignored, since all interactions count as
    positives. Raises ParseError with the offending line number on malformed
    input, DataError on an empty file.
    """
    if delimiter == "":
        raise ParseError("delimiter must not be empty; omit it to split on "
                         "whitespace")
    path = Path(path)
    interactions: list[RawInteraction] = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(delimiter)
                if len(fields) not in (3, 4):
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
                user, item, ts_text = fields[0], fields[1], fields[-1]
                if not user or not item:
                    raise ParseError(f"{path}:{lineno}: empty user or item token")
                try:  # exact for integers past 2**53; text like 9.0 via float
                    ts = int(ts_text)
                except ValueError:
                    try:
                        ts = int(float(ts_text))
                    except (ValueError, OverflowError) as exc:  # nan, inf
                        raise ParseError(
                            f"{path}:{lineno}: bad timestamp {ts_text!r}") from exc
                if ts < 0:
                    raise ParseError(f"{path}:{lineno}: negative timestamp {ts}")
                interactions.append(RawInteraction(user, item, ts))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not interactions:
        raise DataError(f"{path}: no interactions found")
    return interactions


def min_count_filter(records: list[RawInteraction], threshold: int,
                     mode: str = FILTER_MODES[0]) -> list[RawInteraction]:
    """Drop users and items with fewer than ``threshold`` interactions.

    ``mode="fixpoint"`` repeats the sweep until stable (removals can push
    other entities under the threshold); ``mode="single_pass"`` applies one
    simultaneous sweep against the original counts. Surviving records keep
    their order.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}")
    while True:
        user_counts = Counter(rec.user for rec in records)
        item_counts = Counter(rec.item for rec in records)
        kept = [rec for rec in records
                if user_counts[rec.user] >= threshold
                and item_counts[rec.item] >= threshold]
        if not kept:
            raise DataError(f"no interactions survive threshold {threshold}")
        if len(kept) == len(records) or mode == "single_pass":
            return kept
        records = kept


def drop_short_users(records: list[RawInteraction]
                     ) -> tuple[list[RawInteraction], int]:
    """Remove users too short to supply validation and test targets.

    Returns the kept records and the number of dropped users.
    """
    counts = Counter(rec.user for rec in records)
    dropped = sum(1 for n in counts.values() if n < MIN_USER_LENGTH)
    kept = [rec for rec in records if counts[rec.user] >= MIN_USER_LENGTH]
    if not kept:
        raise DataError(f"no users have >= {MIN_USER_LENGTH} interactions")
    return kept, dropped


def leave_one_out(sequences: list[list[int]], n_items: int,
                  user_tokens: list[str] | None = None,
                  item_tokens: list[str] | None = None) -> SplitDataset:
    """Split each user's chronological item sequence: the last item is the
    test target, the one before it the validation target, the rest train.

    Every user needs ``MIN_USER_LENGTH`` items (else DataError naming the
    user). Tokens default to ``u{i}`` / ``i{i}``.
    """
    for u, seq in enumerate(sequences):
        if len(seq) < MIN_USER_LENGTH:
            raise DataError(f"user id {u} has {len(seq)} interactions; "
                            f"need >= {MIN_USER_LENGTH} to split")
    n_users = len(sequences)
    return SplitDataset(
        n_users, n_items, [seq[:-2] for seq in sequences],
        [seq[-2] for seq in sequences], [seq[-1] for seq in sequences],
        [f"u{i}" for i in range(n_users)] if user_tokens is None else user_tokens,
        [f"i{i}" for i in range(n_items)] if item_tokens is None else item_tokens)


def chronological_split(records: list[RawInteraction]) -> SplitDataset:
    """Assign contiguous ids in first-appearance order, sort each user's
    sequence by timestamp (stable on record order) and split it by
    ``leave_one_out``; see ``drop_short_users`` for users too short to split.
    """
    items: dict[str, int] = {}
    per_user: dict[str, list[tuple[int, int]]] = {}
    for rec in records:
        per_user.setdefault(rec.user, []).append(
            (rec.timestamp, items.setdefault(rec.item, len(items))))
    sequences = [[item for _, item in sorted(events, key=lambda pair: pair[0])]
                 for events in per_user.values()]
    return leave_one_out(sequences, len(items), list(per_user), list(items))


def save_snapshot(path: str | Path, dataset: SplitDataset, fingerprint: str,
                  extra: dict | None = None) -> None:
    """Write a dataset snapshot with the stats the dataset implies. A dataset
    the reader's rule rejects raises ParseError, and nothing is written;
    reruns with identical inputs are byte-identical."""
    payload = {**asdict(dataset), "fingerprint": fingerprint}
    if extra:
        payload["extra"] = extra
    payload["stats"] = asdict(dataset_stats(_checked_dataset(path, payload)))
    text = SNAPSHOT_MAGIC + "\n" + json.dumps(
        payload, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _checked_dataset(path, payload) -> SplitDataset:
    """The ``SplitDataset`` a snapshot payload holds, or ParseError when it
    would load only partly or break later: a field missing, or a value that
    breaks its field's rule (counts, declared first, are positive integers;
    ids are integers below their count; tokens are distinct strings)."""
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: snapshot payload is not a JSON object")
    missing = sorted({f.name for f in fields(SplitDataset)} - payload.keys())
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
        if rule["entries"] is str:
            if not all(type(token) is str for token in value):
                raise ParseError(f"{path}: {f.name!r} entries must be strings")
            token, count = Counter(value).most_common(1)[0]
            if count > 1:
                raise ParseError(f"{path}: {f.name!r} entries must be distinct; "
                                 f"{token!r} appears {count} times")
            continue
        bound = payload[rule["entries"]]
        if not all(type(i) is int and 0 <= i < bound for i in value):
            raise ParseError(f"{path}: item ids must be integers in [0, {bound})")
    return SplitDataset(**{f.name: payload[f.name] for f in fields(SplitDataset)})


def load_snapshot(path: str | Path) -> tuple[SplitDataset, dict]:
    """Read a snapshot written by ``save_snapshot``; returns (dataset, meta).

    The payload is validated whole before anything is built from it: a
    dataset that breaks the writer's rule, or ``stats`` other than what it
    implies (with exact types), raise ParseError. Unknown keys are ignored.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
        header, _, body = raw.partition("\n")
        if header != SNAPSHOT_MAGIC:
            raise ParseError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not UTF-8 JSON text ({exc})") from exc
    dataset = _checked_dataset(path, payload)
    implied, stats = asdict(dataset_stats(dataset)), payload.get("stats")
    if not isinstance(stats, dict) or any(
            type(stats.get(k)) is not type(v) or stats[k] != v
            for k, v in implied.items()):
        raise ParseError(f"{path}: stats must be {implied}, what the dataset "
                         "implies")
    return dataset, {key: payload.get(key) for key in ("fingerprint", "extra")}


def prepare(path: str | Path, threshold: int = MIN_COUNT,
            mode: str = FILTER_MODES[0], delimiter: str | None = None
            ) -> tuple[SplitDataset, int]:
    """Full preprocessing pipeline: load, filter, drop short users, split.

    In fixpoint mode the two removals repeat until neither removes anything.
    Returns (split dataset, dropped-short-user count).
    """
    records, dropped = load_interactions(path, delimiter=delimiter), 0
    while True:
        records, short = drop_short_users(
            min_count_filter(records, threshold, mode=mode))
        dropped += short
        if short == 0 or mode == "single_pass":
            return chronological_split(records), dropped
