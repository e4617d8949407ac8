"""Data pipeline: parsing, filtering to a fixpoint, splitting, snapshots."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrgsrec import data as dp
from mrgsrec.errors import DataError, ParseError
from mrgsrec.synthetic import generate_clustered_markov, popularity_hr_at_k


def write_log(tmp_path, lines, name="log.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def random_records(n_users, n_items, n_rows, seed):
    g = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for i in range(n_rows):
        rows.append((f"u{g.integers(n_users)}", f"i{g.integers(n_items)}",
                     int(g.integers(0, 1000))))
    return rows


def log_from_records(records):
    return [dp.RawInteraction(u, i, t) for u, i, t in records]


def as_tuples(records):
    return [(r.user, r.item, r.timestamp) for r in records]


class TestLoad:
    def test_three_line_example(self, tmp_path):
        path = write_log(tmp_path, ["u1 i1 10", "u1 i2 20", "u2 i1 15"])
        log = dp.load_interactions(path)
        assert as_tuples(log) == [("u1", "i1", 10), ("u1", "i2", 20),
                                  ("u2", "i1", 15)]

    def test_first_appearance_indexing(self, tmp_path):
        path = write_log(tmp_path, ["b x 1", "a y 2", "b z 3", "a x 4",
                                    "b y 5", "a z 6"])
        split = dp.chronological_split(dp.load_interactions(path))
        assert split.user_tokens == ["b", "a"]
        assert split.item_tokens == ["x", "y", "z"]
        assert (split.train, split.val, split.test) == ([[0], [1]], [2, 0],
                                                        [1, 2])

    def test_missing_timestamp_reports_line(self, tmp_path):
        path = write_log(tmp_path, ["u1 i1 10", "u1 i1"])
        with pytest.raises(ParseError, match=":2:"):
            dp.load_interactions(path)

    @pytest.mark.parametrize("ts", ["abc", "nan", "inf", "-inf", "1e999"])
    def test_bad_timestamp_reports_line(self, tmp_path, ts):
        path = write_log(tmp_path, ["u1 i2 10", f"u1 i1 {ts}"])
        with pytest.raises(ParseError, match=f":2: bad timestamp '{ts}'"):
            dp.load_interactions(path)

    def test_integer_timestamps_past_2_53_stay_exact(self, tmp_path):
        # 19-digit nanosecond stamps one apart, in reverse file order; read
        # through a float they would tie and keep the file's order
        path = write_log(tmp_path, ["u b 1700000000000000001",
                                    "u a 1700000000000000000",
                                    "u c 1700000000000000002",
                                    "v x 978300760.0", "v y 9", "v z 1e1"])
        log = dp.load_interactions(path)
        assert [r.timestamp for r in log] == [
            1700000000000000001, 1700000000000000000, 1700000000000000002,
            978300760, 9, 10]
        split = dp.chronological_split(log)
        order = [split.item_tokens[i] for i in
                 split.train[0] + [split.val[0], split.test[0]]]
        assert order == ["a", "b", "c"]

    def test_four_column_rating_ignored(self, tmp_path):
        path = write_log(tmp_path, ["u1,i1,5.0,10", "u2,i1,1.0,20"],
                         name="r.csv")
        log = dp.load_interactions(path, delimiter=",")
        assert as_tuples(log) == [("u1", "i1", 10), ("u2", "i1", 20)]

    def test_empty_file_raises(self, tmp_path):
        path = write_log(tmp_path, [""])
        with pytest.raises(DataError):
            dp.load_interactions(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        path = write_log(tmp_path, ["u1 i1 -5"])
        with pytest.raises(ParseError):
            dp.load_interactions(path)


def brute_force_filter(records, threshold):
    """Independent oracle: literally remove offenders until stable."""
    records = list(records)
    while True:
        users = {}
        items = {}
        for u, i, _ in records:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        bad_u = {u for u, n in users.items() if n < threshold}
        bad_i = {i for i, n in items.items() if n < threshold}
        if not bad_u and not bad_i:
            return records
        records = [r for r in records
                   if r[0] not in bad_u and r[1] not in bad_i]


class TestFilter:
    def test_user_below_threshold_removed(self):
        records = [("u1", f"i{j}", j) for j in range(4)]  # 4 rows < 5
        records += [("u2", "ia", 10), ("u2", "ia", 11), ("u2", "ia", 12),
                    ("u2", "ib", 13), ("u2", "ib", 14),
                    ("u3", "ia", 15), ("u3", "ia", 16),
                    ("u3", "ib", 17), ("u3", "ib", 18), ("u3", "ib", 19)]
        log = log_from_records(records)
        filtered = dp.min_count_filter(log, 5)
        assert {r.user for r in filtered} == {"u2", "u3"}

    def test_already_satisfying_unchanged(self):
        records = [("u1", "i1", 1), ("u1", "i1", 2), ("u2", "i1", 3),
                   ("u2", "i1", 4)]
        log = log_from_records(records)
        filtered = dp.min_count_filter(log, 2)
        assert as_tuples(filtered) == records

    def test_everything_removed_raises(self):
        log = log_from_records([("u1", "i1", 1)])
        with pytest.raises(DataError):
            dp.min_count_filter(log, 5)

    def test_threshold_below_one_rejected(self):
        log = log_from_records([("u1", "i1", 1)])
        with pytest.raises(ValueError):
            dp.min_count_filter(log, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_fixpoint_matches_brute_force_oracle(self, seed):
        records = random_records(50, 30, 400, seed)
        log = log_from_records(records)
        expect = brute_force_filter(records, 3)
        got = dp.min_count_filter(log, 3)
        assert as_tuples(got) == expect

    @pytest.mark.parametrize("seed", range(3))
    def test_fixpoint_idempotent(self, seed):
        log = log_from_records(random_records(20, 15, 150, seed))
        once = dp.min_count_filter(log, 3)
        twice = dp.min_count_filter(once, 3)
        assert once == twice

    def test_single_pass_differs_when_cascade_exists(self):
        # u1 dies on the first sweep; only then does i1 fall below the
        # threshold, so single-pass keeps it and fixpoint does not.
        records = [("u1", "i1", 1), ("u1", "i1", 2),
                   ("u2", "i1", 3), ("u2", "i2", 4), ("u2", "i3", 5),
                   ("u2", "i2", 6), ("u2", "i3", 7),
                   ("u3", "i2", 8), ("u3", "i3", 9),
                   ("u3", "i2", 10), ("u3", "i3", 11)]
        log = log_from_records(records)
        single = dp.min_count_filter(log, 3, mode="single_pass")
        fixed = dp.min_count_filter(log, 3, mode="fixpoint")
        assert "i1" in {r.item for r in single}
        assert "i1" not in {r.item for r in fixed}

    def test_index_compaction_no_gaps(self):
        log = log_from_records(random_records(30, 20, 200, 9))
        filtered, _ = dp.drop_short_users(dp.min_count_filter(log, 3))
        split = dp.chronological_split(filtered)
        ids = {i for seq in split.train for i in seq} | set(split.val) \
            | set(split.test)
        assert ids == set(range(split.n_items))
        assert sorted(split.user_tokens) == sorted({r.user for r in filtered})
        assert sorted(split.item_tokens) == sorted({r.item for r in filtered})


def split_oracle(records):
    """Brute force: bucket per user, stable sort by timestamp, slice."""
    per_user = {}
    for pos, (u, i, t) in enumerate(records):
        per_user.setdefault(u, []).append((t, pos, i))
    result = {}
    for u, rows in per_user.items():
        rows.sort(key=lambda r: (r[0], r[1]))
        items = [i for _, _, i in rows]
        result[u] = (items[:-2], items[-2], items[-1])
    return result


class TestSplit:
    def test_three_interaction_user(self):
        log = log_from_records([("u", "i1", 10), ("u", "i2", 20),
                                ("u", "i3", 30)])
        split = dp.chronological_split(log)
        assert split.train[0] == [0]
        assert split.val[0] == 1
        assert split.test[0] == 2

    def test_timestamp_ties_keep_record_order(self):
        log = log_from_records([("u", "a", 5), ("u", "b", 5), ("u", "c", 5)])
        split = dp.chronological_split(log)
        assert split.train[0] == [split.item_tokens.index("a")]
        assert split.val[0] == split.item_tokens.index("b")
        assert split.test[0] == split.item_tokens.index("c")

    def test_short_user_raises(self):
        log = log_from_records([("u", "a", 1), ("u", "b", 2)])
        with pytest.raises(DataError, match="user id 0 has 2"):
            dp.chronological_split(log)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sort_and_slice_oracle(self, seed):
        records = [r for r in random_records(20, 25, 300, seed)]
        log = log_from_records(records)
        log, _ = dp.drop_short_users(log)
        split = dp.chronological_split(log)
        oracle = split_oracle(as_tuples(log))
        assert split.user_tokens == list(oracle)
        tokens = split.item_tokens
        for u, token in enumerate(split.user_tokens):
            train_o, val_o, test_o = oracle[token]
            assert [tokens[i] for i in split.train[u]] == train_o
            assert tokens[split.val[u]] == val_o
            assert tokens[split.test[u]] == test_o

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_property(self, seed):
        log, _ = dp.drop_short_users(
            log_from_records(random_records(15, 20, 200, seed)))
        split = dp.chronological_split(log)
        per_user = {}
        for pos, rec in enumerate(log):
            per_user.setdefault(rec.user, []).append(
                (rec.timestamp, pos, rec.item))
        assert len(per_user) == split.n_users
        for u, token in enumerate(split.user_tokens):
            full = [i for _, _, i in sorted(per_user[token])]
            assert [split.item_tokens[i] for i in
                    split.train[u] + [split.val[u], split.test[u]]] == full


class TestStats:
    def test_single_interaction(self):
        stats = dp.dataset_stats(dp.SplitDataset(1, 3, [[0]], [1], [2]))
        assert (stats.n_users, stats.n_items, stats.n_interactions,
                stats.avg_length) == (1, 3, 3, 3.0)

    def test_consistency_identity(self):
        log, _ = dp.drop_short_users(
            log_from_records(random_records(12, 9, 123, 3)))
        stats = dp.dataset_stats(dp.chronological_split(log))
        assert stats.n_interactions == len(log)
        assert stats.n_users == len({r.user for r in log})
        assert stats.n_items == len({r.item for r in log})
        assert abs(stats.avg_length * stats.n_users - stats.n_interactions) \
            <= 1e-9 * stats.n_interactions


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(0, 50)), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_filter_postcondition_property(rows):
    records = [(f"u{a}", f"i{b}", t) for a, b, t in rows]
    log = log_from_records(records)
    try:
        filtered = dp.min_count_filter(log, 2)
    except DataError:
        return
    counts_u, counts_i = {}, {}
    for rec in filtered:
        counts_u[rec.user] = counts_u.get(rec.user, 0) + 1
        counts_i[rec.item] = counts_i.get(rec.item, 0) + 1
    assert all(n >= 2 for n in counts_u.values())
    assert all(n >= 2 for n in counts_i.values())


# Written by ``save_snapshot`` when snapshots still carried a ``seed`` key.
EARLIER_SNAPSHOT = (
    'MRGS-DATA-v1\n{"extra":{"dropped_short_users":0,"filter_mode":"fixpoint"},'
    '"fingerprint":"0123456789abcdef","item_tokens":["item0","item1","item2",'
    '"item3"],"n_items":4,"n_users":3,"seed":3,"stats":{"avg_length":4.0,'
    '"n_interactions":12,"n_items":4,"n_users":3},"test":[2,0,2],'
    '"train":[[0],[1,2],[2,3,0]],"user_tokens":["user0","user1","user2"],'
    '"val":[1,3,1]}\n')


class TestSnapshot:
    def test_roundtrip_and_idempotence(self, tmp_path):
        log, _ = dp.drop_short_users(
            log_from_records(random_records(10, 12, 120, 5)))
        split = dp.chronological_split(log)
        p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
        dp.save_snapshot(p1, split, fingerprint="fp")
        dp.save_snapshot(p2, split, fingerprint="fp")
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == \
            hashlib.sha256(p2.read_bytes()).hexdigest()
        loaded, meta = dp.load_snapshot(p1)
        assert loaded == split
        written = json.loads(p1.read_text(encoding="utf-8").partition("\n")[2])
        assert written["stats"]["n_interactions"] == len(log)
        assert meta["fingerprint"] == "fp"

    def test_magic_header_checked(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_text("NOT-A-SNAPSHOT\n{}", encoding="utf-8")
        with pytest.raises(ParseError):
            dp.load_snapshot(path)

    def test_earlier_format_with_seed_key_loads(self, tmp_path):
        path = tmp_path / "earlier.snap"
        path.write_text(EARLIER_SNAPSHOT, encoding="utf-8")
        dataset, meta = dp.load_snapshot(path)
        assert dataset == dp.SplitDataset(
            3, 4, [[0], [1, 2], [2, 3, 0]], [1, 3, 1], [2, 0, 2],
            ["user0", "user1", "user2"], ["item0", "item1", "item2", "item3"])
        assert dp.dataset_stats(dataset) == dp.DatasetStats(3, 4, 12, 4.0)
        assert meta == {"fingerprint": "0123456789abcdef", "extra": {
            "dropped_short_users": 0, "filter_mode": "fixpoint"}}
        again = tmp_path / "again.snap"
        dp.save_snapshot(again, dataset, **meta)
        assert again.read_text(encoding="utf-8") == \
            EARLIER_SNAPSHOT.replace('"seed":3,', "")

    @pytest.mark.parametrize("dataset", [
        dp.SplitDataset(2, 3, [[0], [1]], [1, 2], [2, 0]),
        dp.SplitDataset(2, 3, [[0], []], [1, 2], [2, 0], ["a", "b"],
                        ["x", "y", "z"]),
        dp.leave_one_out([[0, 1, 2], [1, 2, 0]], 3, ["a", "a"],
                         ["x", "x", "y"]),
    ], ids=["no_tokens", "empty_train", "duplicate_tokens"])
    def test_save_refuses_what_load_rejects(self, tmp_path, dataset):
        path = tmp_path / "bad.snap"
        with pytest.raises(ParseError):
            dp.save_snapshot(path, dataset, fingerprint="x")
        assert not path.exists()

    @pytest.mark.parametrize("wrong", [
        {"n_users": 4}, {"n_items": 3}, {"n_interactions": 13},
        {"n_interactions": 12.0}, {"avg_length": 4},
        {"avg_length": 4.000000000000001}, {"n_users": True},
    ], ids=str)
    def test_stats_the_dataset_does_not_imply_are_rejected(self, tmp_path,
                                                           wrong):
        doc = json.loads(EARLIER_SNAPSHOT.partition("\n")[2])
        doc["stats"].update(wrong)
        path = tmp_path / "wrong.snap"
        path.write_text("MRGS-DATA-v1\n" + json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError, match="stats"):
            dp.load_snapshot(path)

    def test_header_line_is_magic(self, tmp_path):
        log, _ = dp.drop_short_users(
            log_from_records(random_records(5, 8, 60, 6)))
        split = dp.chronological_split(log)
        path = tmp_path / "c.snap"
        dp.save_snapshot(path, split, fingerprint="x")
        assert path.read_text(encoding="utf-8").splitlines()[0] == "MRGS-DATA-v1"


def test_prepare_pipeline_end_to_end(tmp_path):
    rows = []
    for u in range(8):
        for j in range(6):
            rows.append(f"user{u} item{(u + j) % 7} {j * 10}")
    path = write_log(tmp_path, rows)
    split, dropped = dp.prepare(path, threshold=5)
    assert dropped == 0
    assert dp.dataset_stats(split) == dp.DatasetStats(8, 7, 48, 6.0)
    assert all(len(t) >= 1 for t in split.train)


def test_prepare_fixpoint_repeats_the_short_user_drop(tmp_path):
    # dropping a (2 items) leaves x with one interaction; the filter then
    # drops x, which leaves b short in turn
    log = {"a": "x y", "b": "x y z", "c": "y z w", "d": "z w y"}
    rows = [f"{user} {item} {t}" for user, items in log.items()
            for t, item in enumerate(items.split())]
    path = write_log(tmp_path, rows)
    split, dropped = dp.prepare(path, threshold=2)
    assert dropped == 2
    assert split.user_tokens == ["c", "d"]
    assert sorted(split.item_tokens) == ["w", "y", "z"]
    assert dp.dataset_stats(split).n_interactions == 6
    # one sweep of each keeps x, as single-pass mode does
    split, dropped = dp.prepare(path, threshold=2, mode="single_pass")
    assert dropped == 1 and "x" in split.item_tokens


def test_synthetic_dataset_pinned():
    """The generator's random stream, and so every workload built from it,
    stays bit-for-bit what it was."""
    ds = generate_clustered_markov(n_users=50, n_items=60, n_clusters=6,
                                   min_len=5, max_len=12, seed=3)
    digest = hashlib.sha256(
        json.dumps([ds.train, ds.val, ds.test]).encode()).hexdigest()
    assert digest == ("2fd93123c704d8bf72abc5b0f3417e56"
                      "743c7a15aa29c7aa287d183b75555459")


@pytest.mark.parametrize("k", [1, 5, 10, 60])
def test_popularity_baseline_matches_loop_oracle(k):
    ds = generate_clustered_markov(n_users=50, n_items=60, n_clusters=6,
                                   min_len=5, max_len=12, seed=3)
    counts = [0] * ds.n_items
    for seq in ds.train:
        for item in seq:
            counts[item] += 1
    # most frequent first, ties by ascending id
    top = sorted(range(ds.n_items), key=lambda i: (-counts[i], i))[:k]
    hits = sum(t in top for t in ds.test)
    assert popularity_hr_at_k(ds, k) == hits / ds.n_users


class TestLeaveOneOut:
    def test_splits_and_names_by_default(self):
        split = dp.leave_one_out([[4, 0, 1], [2, 3, 4, 0]], 5)
        assert split == dp.SplitDataset(
            2, 5, [[4], [2, 3]], [0, 4], [1, 0], ["u0", "u1"],
            ["i0", "i1", "i2", "i3", "i4"])

    def test_short_user_named(self):
        with pytest.raises(DataError, match="user id 1 has 2"):
            dp.leave_one_out([[0, 1, 2], [0, 1]], 3)


def test_generator_rejects_more_preferred_clusters_than_weights():
    with pytest.raises(ValueError, match="n_preferred must be <= 3"):
        generate_clustered_markov(n_users=5, n_preferred=4)


@pytest.mark.parametrize("counts", [{"n_clusters": 0}, {"n_preferred": 0},
                                    {"n_clusters": -2}])
def test_generator_rejects_empty_cluster_counts(counts):
    with pytest.raises(ValueError, match="must be >= 1"):
        generate_clustered_markov(n_users=5, **counts)


def test_generator_rejects_users_too_short_to_split():
    with pytest.raises(DataError, match="need >= 3"):
        generate_clustered_markov(n_users=50, min_len=2, max_len=3, seed=0)
