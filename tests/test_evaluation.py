"""Ranking metrics and the leave-one-out evaluation protocol."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrgsrec import autodiff as ad
from mrgsrec import evaluation as ev
from mrgsrec import graph as gr
from mrgsrec import model as md
from mrgsrec import training as tr
from mrgsrec.data import SplitDataset
from mrgsrec.embeddings import build_batch
from mrgsrec.errors import GraphError, NumericError, ProtocolError
from mrgsrec.graph import build_adjacency
from mrgsrec.losses import LossWeights
from mrgsrec.model import init_model
from mrgsrec.verification import metric_oracle_rank, random_dataset


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestRankTarget:
    def test_unique_max_ranks_first(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert ev.rank_target(scores, 1) == 1

    def test_all_equal_smallest_id_wins(self):
        scores = np.zeros(8)
        assert ev.rank_target(scores, 0) == 1
        assert ev.rank_target(scores, 3) == 4

    def test_exclusions_removed_from_candidates(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0])
        assert ev.rank_target(scores, 3, excluded={0, 1, 2}) == 1

    def test_excluded_target_raises(self):
        with pytest.raises(ProtocolError):
            ev.rank_target(np.zeros(4), 2, excluded={2})

    def test_a_non_integer_excluded_id_raises(self):
        # 3.5 would be truncated to item 3, which outscores the target
        with pytest.raises(IndexError,
                           match="excluded item ids must be integers, got float64"):
            ev.rank_target([0.1, 0.5, 0.3, 0.9], 1, {3.5})

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sort_based_oracle(self, seed):
        g = rng(seed)
        scores = np.round(g.normal(size=50), 1)  # rounding forces ties
        target = int(g.integers(50))
        excluded = set(g.integers(0, 50, size=6).tolist()) - {target}
        assert ev.rank_target(scores, target, excluded) == \
            metric_oracle_rank(scores, target, excluded)


def pairs(excluded):
    """(rows, items) pairs of a per-row list of excluded ids, row by row."""
    rows = np.repeat(np.arange(len(excluded)), [len(ex) for ex in excluded])
    items = np.asarray([i for ex in excluded for i in ex], dtype=np.int64)
    return rows, items


@st.composite
def ranking_blocks(draw):
    """A (B, N) block of small-integer scores (many ties), one target per
    row and a history per row that may contain the target or be empty."""
    n_items = draw(st.integers(1, 12))
    n_rows = draw(st.integers(1, 6))
    scores = np.array(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n_items, max_size=n_items),
        min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    targets = draw(st.lists(st.integers(0, n_items - 1),
                            min_size=n_rows, max_size=n_rows))
    histories = draw(st.lists(
        st.lists(st.integers(0, n_items - 1), max_size=8),
        min_size=n_rows, max_size=n_rows))
    return scores, targets, histories


class TestRankTargets:
    @settings(max_examples=200, deadline=None)
    @given(ranking_blocks())
    def test_rows_match_sort_oracle(self, block):
        scores, targets, histories = block
        # the target always stays a candidate, as evaluate arranges it
        excluded = [[i for i in h if i != t] for h, t in zip(histories, targets)]
        got = ev.rank_targets(scores, targets, pairs(excluded))
        open_ranks = ev.rank_targets(scores, targets)
        for row, target, ex, rank, open_rank in zip(
                scores, targets, excluded, got, open_ranks):
            assert rank == metric_oracle_rank(row, target, ex)
            assert open_rank == metric_oracle_rank(row, target)

    def test_excluded_target_raises(self):
        excluded = (np.array([1]), np.array([2]))
        with pytest.raises(ProtocolError):
            ev.rank_targets(np.zeros((2, 4)), [1, 2], excluded)

    @settings(max_examples=200, deadline=None)
    @given(ranking_blocks(), st.integers(0, 2**32 - 1))
    def test_shuffled_and_repeated_pairs_match_sort_oracle(self, block, seed):
        scores, targets, histories = block
        excluded = [[i for i in h if i != t] for h, t in zip(histories, targets)]
        rows, items = pairs(excluded)
        g = rng(seed)
        again = g.integers(0, 2, size=rows.size).astype(bool)  # some repeat
        order = g.permutation(rows.size + int(again.sum()))
        rows = np.concatenate([rows, rows[again]])[order]
        items = np.concatenate([items, items[again]])[order]
        got = ev.rank_targets(scores, targets, (rows, items))
        for row, target, ex, rank in zip(scores, targets, excluded, got):
            assert rank == metric_oracle_rank(row, target, ex)

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_out_of_range_raises(self, target):
        # -1 would rank the last item, whose score is the highest
        with pytest.raises(IndexError, match=r"target id out of range \[0, 4\)"):
            ev.rank_targets([[0.1, 0.5, 0.3, 0.9]], [target])

    @pytest.mark.parametrize("target, dtype", [(1.7, "float64"),
                                               (True, "bool")])
    def test_a_non_integer_target_raises(self, target, dtype):
        # 1.7 would be truncated to item 1, and True read as item 1
        with pytest.raises(IndexError,
                           match=f"target ids must be integers, got {dtype}"):
            ev.rank_targets([[0.1, 0.5, 0.3, 0.9]], [target])

    @pytest.mark.parametrize("half, what", [(0, "excluded row"),
                                            (1, "excluded item")])
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_a_non_integer_excluded_pair_raises(self, half, what, dtype):
        excluded = [np.array([0, 1]), np.array([3, 0])]
        excluded[half] = excluded[half].astype(dtype)
        with pytest.raises(IndexError, match=f"{what} ids must be integers, "
                                             f"got {np.dtype(dtype)}"):
            ev.rank_targets([[0.1, 0.5, 0.3, 0.9], [0.9, 0.2, 0.4, 0.3]],
                            [1, 1], tuple(excluded))

    @pytest.mark.parametrize("row, item, what, limit", [
        (0, -1, "excluded item", 4), (0, 4, "excluded item", 4),
        (-1, 0, "excluded row", 2), (2, 0, "excluded row", 2)])
    def test_excluded_pair_out_of_range_raises(self, row, item, what, limit):
        # an excluded item -1 would clear the last item of the row, and an
        # excluded row -1 an entry of the last row
        scores = np.array([[0.1, 0.5, 0.3, 0.9], [0.9, 0.2, 0.4, 0.3]])
        before = scores.copy()
        excluded = (np.array([1, row]), np.array([2, item]))
        with pytest.raises(IndexError,
                           match=rf"{what} id out of range \[0, {limit}\)"):
            ev.rank_targets(scores, [1, 1], excluded)
        assert scores.tobytes() == before.tobytes()


@st.composite
def rank_cases(draw):
    """A (B, N) score block with its targets and per-row exclusions.

    Scores are integer-valued (many ties) or distinct, with ±0.0 and NaN
    entries mixed in; a target may be NaN, exclusions may repeat an id and
    may tie with the target, and the block may be a non-contiguous view.
    """
    n_items = draw(st.sampled_from([1, 7, 8, 9, 1201]))
    n_rows = draw(st.sampled_from([1, 2, 5]))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = g.integers(-2, 3, size=(n_rows, n_items)).astype(np.float64)
    else:
        scores = np.stack([g.permutation(n_items) / 7.0
                           for _ in range(n_rows)])
    targets = g.integers(0, n_items, size=n_rows)
    specials = draw(st.lists(st.sampled_from([np.nan, 0.0, -0.0]),
                             max_size=6))
    for value in specials:
        scores[g.integers(n_rows), g.integers(n_items)] = value
    if draw(st.booleans()):
        scores[0, targets[0]] = np.nan
    excluded = []
    for row, target in zip(scores, targets):
        ids = g.integers(0, n_items, size=g.integers(0, 5)).tolist()
        ids += ids[:1]  # a repeated id
        if draw(st.booleans()) and n_items > 1:  # one that ties with the target
            tie = (target + 1) % n_items
            row[tie] = row[target]
            ids.append(tie)
        excluded.append([i for i in ids if i != target])
    if draw(st.booleans()):  # every other column of a wider block
        wide = np.zeros((n_rows, 2 * n_items))
        wide[:, ::2] = scores
        scores = wide[:, ::2]
    return scores, targets, excluded


def _nan_free(row, target):
    """The row as the ranking rule reads it, in terms the sort oracle can
    order: a NaN entry is never ahead of the target, and nothing is ahead
    of a NaN target."""
    row = row.copy()
    if np.isnan(row[target]):
        row[:] = 0.0
        row[target] = 1.0
    row[np.isnan(row)] = -np.inf
    return row


class TestRankTargetsFastAndTiePaths:
    @settings(max_examples=300, deadline=None)
    @given(rank_cases())
    def test_rows_match_sort_oracle_and_leave_scores_unchanged(self, case):
        scores, targets, excluded = case
        before = scores.copy()
        with mock.patch.object(ev, "_row_counts",
                               wraps=ev._row_counts) as counts:
            got = ev.rank_targets(scores, targets, pairs(excluded))
        assert scores.tobytes() == before.tobytes()
        # the tie path counts a second time exactly when some row's target
        # is NaN or ties with another item
        one_tie_each = all(np.count_nonzero(row == row[t]) == 1
                           for row, t in zip(scores, targets))
        assert counts.call_count == (1 if one_tie_each else 2)
        for row, target, ex, rank in zip(scores, targets, excluded, got):
            assert rank == metric_oracle_rank(_nan_free(row, target), target, ex)

    @pytest.mark.parametrize("scores,target,calls", [
        ([0.3, 0.1, 0.2], 2, 1),          # distinct: fast path
        ([0.2, 0.1, 0.2], 2, 2),          # a tie with a smaller id
        ([-0.0, 0.0, 1.0], 1, 2),         # -0.0 ties with +0.0
        ([np.nan, 0.5, np.nan], 1, 1),    # NaN entries tie with nothing
        ([0.5, np.nan, 0.7], 1, 2),       # a NaN target
    ])
    def test_each_path_runs(self, scores, target, calls):
        scores = np.array([scores])
        with mock.patch.object(ev, "_row_counts",
                               wraps=ev._row_counts) as counts:
            rank = ev.rank_targets(scores, [target])[0]
        assert counts.call_count == calls
        assert rank == metric_oracle_rank(_nan_free(scores[0], target), target)

    @pytest.mark.parametrize("n_items", [1, 8, 2040, 2041, 4097])
    def test_row_counts_past_255_words(self, n_items):
        # a byte of a partial word sum holds at most 255, so wide rows add
        # in groups; every entry True is the worst case
        g = rng(n_items)
        buffer = np.zeros((3, -(-n_items // 8) * 8), dtype=bool)
        buffer[:, :n_items] = g.random((3, n_items)) < 0.9
        buffer[0, :n_items] = True
        np.testing.assert_array_equal(ev._row_counts(buffer),
                                      np.count_nonzero(buffer, axis=1))


class TestMetrics:
    def test_hr_boundary_inclusive(self):
        assert ev.hr_at_k(10, 10) == 1.0
        assert ev.hr_at_k(11, 10) == 0.0

    def test_ndcg_closed_forms(self):
        assert ev.ndcg_at_k(1, 5) == 1.0
        assert ev.ndcg_at_k(3, 5) == pytest.approx(0.5)  # 1/log2(4)
        assert ev.ndcg_at_k(6, 5) == 0.0

    def test_ndcg_matches_brute_force_dcg_oracle(self):
        g = rng(1)
        ranks = g.integers(1, 30, size=200)
        for k in (5, 10):
            got = np.mean([ev.ndcg_at_k(int(r), k) for r in ranks])
            # oracle: DCG of a single relevant doc at position r, IDCG = 1
            want = np.mean([
                (1.0 / math.log2(r + 1)) if r <= k else 0.0 for r in ranks])
            assert got == pytest.approx(want, abs=1e-12)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            ev.hr_at_k(0, 5)
        with pytest.raises(ValueError):
            ev.ndcg_at_k(0, 5)

    def test_random_scores_hr_matches_analytic_expectation(self):
        g = rng(2)
        n_users, n_items = 2000, 40
        hits5 = hits10 = 0
        for _ in range(n_users):
            scores = g.normal(size=n_items)
            target = int(g.integers(n_items))
            r = ev.rank_target(scores, target)
            hits5 += ev.hr_at_k(r, 5)
            hits10 += ev.hr_at_k(r, 10)
        for hits, k in ((hits5, 5), (hits10, 10)):
            p = k / n_items
            sigma = math.sqrt(p * (1 - p) / n_users)
            assert abs(hits / n_users - p) < 3 * sigma


def eval_hyper(**overrides):
    base = dict(c=4, d=8, k=0, n_layers=0, n_heads=2, dropout_rate=0.0,
                user_state="last_position", scoring_head="sequential",
                weights=LossWeights(), batch_size=4, max_epochs=1,
                patience=1, seed=0, exclude_seen=True)
    base.update(overrides)
    return tr.Hyperparams(**base)


def oracle_model(dataset, hyper, target_of):
    """Zero-layer model whose user rows point at a chosen item per user."""
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    params.tables.item.data[:-1] = np.eye(dataset.n_items, hyper.d)
    params.tables.item.data[-1] = 0.0
    params.tables.positional.data[...] = 0.0
    for u in range(dataset.n_users):
        params.tables.user.data[u] = np.eye(dataset.n_items, hyper.d)[
            target_of[u]]
    return params


class TestEvaluate:
    def make_dataset(self, seed=3, m=12, n=10):
        return random_dataset(m, n, seed, min_len=4, max_len=7)

    def test_perfect_scores_give_all_ones(self):
        dataset = self.make_dataset()
        hyper = eval_hyper(scoring_head="graph", k=0, d=dataset.n_items)
        params = oracle_model(dataset, hyper, dataset.val)
        report = ev.evaluate(params, dataset, "validation", hyper)
        assert (report.hr5, report.hr10, report.ndcg5, report.ndcg10) == \
            (1.0, 1.0, 1.0, 1.0)

    def test_test_split_perfect_oracle(self):
        dataset = self.make_dataset(seed=4)
        hyper = eval_hyper(scoring_head="graph", k=0, d=dataset.n_items)
        params = oracle_model(dataset, hyper, dataset.test)
        report = ev.evaluate(params, dataset, "test", hyper)
        assert report.hr10 == 1.0

    def test_monotonicity_and_bounds_on_generic_model(self):
        dataset = self.make_dataset(seed=5)
        hyper = eval_hyper(scoring_head="sequential", n_layers=1, d=8)
        params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                            hyper.seq_config(), seed=1)
        report = ev.evaluate(params, dataset, "validation", hyper)
        report.validate()  # raises on violation
        assert report.n_users == dataset.n_users

    def test_determinism(self):
        dataset = self.make_dataset(seed=6)
        hyper = eval_hyper(scoring_head="fused", k=1, n_layers=1)
        params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                            hyper.seq_config(), seed=2)
        a = ev.evaluate(params, dataset, "test", hyper)
        b = ev.evaluate(params, dataset, "test", hyper)
        assert (a.hr5, a.hr10, a.ndcg5, a.ndcg10) == \
            (b.hr5, b.hr10, b.ndcg5, b.ndcg10)

    def test_inputs_contain_val_item_at_test_and_never_the_target(self,
                                                                  monkeypatch):
        dataset = self.make_dataset(seed=7)
        hyper = eval_hyper()
        params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                            hyper.seq_config(), seed=0)
        captured = []
        original = ev.window_batch

        def spy(users, lengths, items, c, pad):
            sequences = np.split(items, np.cumsum(lengths)[:-1])
            captured.append((list(users), [s.tolist() for s in sequences]))
            return original(users, lengths, items, c, pad)

        monkeypatch.setattr(ev, "window_batch", spy)
        ev.evaluate(params, dataset, "test", hyper)
        assert captured
        for users, sequences in captured:
            for u, seq in zip(users, sequences):
                assert seq == dataset.train[u] + [dataset.val[u]]
                assert seq.count(dataset.test[u]) == \
                    (dataset.train[u] + [dataset.val[u]]).count(dataset.test[u])
        captured.clear()
        ev.evaluate(params, dataset, "validation", hyper)
        for users, sequences in captured:
            for u, seq in zip(users, sequences):
                assert seq == dataset.train[u]

    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_a_non_integer_target_is_refused(self, split):
        # a held-out 2.5 would be ranked, and excluded at test, as item 2
        held_out = {"validation": "val", "test": "test"}[split]
        dataset = SplitDataset(1, 5, [[0, 1]], [2], [3])
        setattr(dataset, held_out, [2.5])
        hyper = eval_hyper(c=3, scoring_head="graph", k=0, d=5, n_heads=1)
        params = init_model(1, 5, 3, hyper.seq_config(), seed=0)
        with pytest.raises(IndexError, match=f"{split} target ids must be "
                                             "integers, got float64"):
            ev.evaluate(params, dataset, split, hyper)

    def test_exclude_seen_flag_changes_candidates(self):
        # one user whose seen items would outrank the target if not masked
        dataset = SplitDataset(1, 5, [[0, 1]], [2], [3])
        hyper = eval_hyper(c=3, scoring_head="graph", k=0, d=5, n_heads=1)
        params = init_model(1, 5, 3, hyper.seq_config(), seed=0)
        params.tables.item.data[:-1] = np.eye(5)
        params.tables.user.data[0] = np.array([3.0, 2.0, 1.0, 0.5, 0.0])
        masked = ev.evaluate(params, dataset, "validation", hyper)
        open_mode = ev.evaluate(
            params, dataset, "validation",
            dataclasses.replace(hyper, exclude_seen=False))
        assert masked.hr5 == 1.0          # seen 0,1 removed -> target rank 1
        assert open_mode.ndcg5 == pytest.approx(0.5)  # rank 3 in full catalog

    def test_report_rendering(self):
        report = ev.MetricsReport("test", 0.5, 0.6, 0.3, 0.4, 100, "fp")
        text = report.text()
        assert "split: test" in text and "hr10: 0.600000" in text
        row = report.row()
        assert row.split("\t") == ["test", "100", "0.500000", "0.600000",
                                   "0.300000", "0.400000", "fp"]

    def test_bad_split_name_rejected(self):
        dataset = self.make_dataset()
        hyper = eval_hyper()
        params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                            hyper.seq_config(), seed=0)
        with pytest.raises(ValueError):
            ev.evaluate(params, dataset, "train", hyper)


@pytest.mark.parametrize("head", ["fused", "sequential", "graph"])
def test_non_finite_item_row_raises_before_scoring(monkeypatch, head):
    # a NaN score never ranks ahead of the target, so a NaN model would
    # otherwise score HR = NDCG = 1
    dataset = random_dataset(12, 10, seed=3)
    hyper = eval_hyper(scoring_head=head, k=1)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    params.tables.item.data[4] = np.nan
    monkeypatch.setattr(ev, "forward_states", None)  # scoring must not start
    with pytest.raises(NumericError, match="tables.item"):
        ev.evaluate(params, dataset, "test", hyper)


def test_report_invariant_validation():
    with pytest.raises(ProtocolError):
        ev.MetricsReport("x", 0.5, 0.4, 0.2, 0.1, 10).validate()  # hr5 > hr10
    with pytest.raises(ProtocolError):
        ev.MetricsReport("x", 0.2, 0.4, 0.3, 0.41, 10).validate()  # ndcg5 > hr5


def _recomposed(params, dataset, split, hyper, rank_of=ev.rank_target):
    """``evaluate`` rebuilt from its public calls: one ``forward_states``
    (which propagates the graph itself) per chunk, one ``rank_of`` (by
    default ``rank_target``) per user, totals added per user in user order."""
    paths = md.encoder_paths(hyper.scoring_head)
    adjacency = build_adjacency(dataset.train, dataset.n_users,
                                dataset.n_items) if paths["need_graph"] else None
    totals = [0.0, 0.0, 0.0, 0.0]
    for start in range(0, dataset.n_users, ev.EVAL_BATCH):
        chunk = list(range(start, min(start + ev.EVAL_BATCH, dataset.n_users)))
        if split == "validation":
            sequences = [dataset.train[u] for u in chunk]
            targets = [dataset.val[u] for u in chunk]
        else:
            sequences = [dataset.train[u] + [dataset.val[u]] for u in chunk]
            targets = [dataset.test[u] for u in chunk]
        batch = build_batch(chunk, sequences, hyper.c, params.tables.padding_id)
        states = md.forward_states(params, batch, adjacency, hyper.k,
                                   layer_mean=hyper.layer_mean, **paths)
        scores = md.score_batch(params, states, hyper.scoring_head).data
        for row, seq, target in zip(scores, sequences, targets):
            seen = set(seq) - {target} if hyper.exclude_seen else set()
            rank = rank_of(row, target, seen)
            for i, value in enumerate((ev.hr_at_k(rank, 5), ev.hr_at_k(rank, 10),
                                       ev.ndcg_at_k(rank, 5),
                                       ev.ndcg_at_k(rank, 10))):
                totals[i] += value
    n = dataset.n_users
    return ev.MetricsReport(split, *(t / n for t in totals), n_users=n)


@pytest.mark.parametrize("split", ["validation", "test"])
@pytest.mark.parametrize("head", ["fused", "sequential", "graph"])
def test_evaluate_equals_per_chunk_recomposition(monkeypatch, head, split):
    # 40 users in chunks of 16: long enough that a vectorised per-chunk sum
    # rounds differently from per-user addition on every head and split
    monkeypatch.setattr(ev, "EVAL_BATCH", 16)
    dataset = random_dataset(40, 15, seed=8, min_len=4, max_len=9)
    hyper = eval_hyper(scoring_head=head, k=2, n_layers=1, layer_mean=True)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=4)
    assert ev.evaluate(params, dataset, split, hyper) == \
        _recomposed(params, dataset, split, hyper)


@pytest.mark.parametrize("exclude_seen", [True, False])
@pytest.mark.parametrize("split", ["validation", "test"])
@pytest.mark.parametrize("tied", [False, True])
def test_evaluate_equals_the_sort_oracle(split, exclude_seen, tied):
    # 300 users: two full chunks of EVAL_BATCH and a partial one, ranked by
    # the sort oracle from lists. With integer tables and k=0 every score is
    # an integer, so targets tie with seen and unseen items and the tie path
    # runs in every chunk; with drawn tables it never runs.
    dataset = random_dataset(300, 30, seed=9, min_len=3, max_len=8)
    hyper = eval_hyper(scoring_head="graph", k=0 if tied else 1,
                       exclude_seen=exclude_seen)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=5)
    if tied:
        tables = params.tables
        g = rng(9)
        tables.user.data[:] = g.integers(-1, 2, size=tables.user.shape)
        tables.item.data[:-1] = g.integers(-1, 2, size=(dataset.n_items, hyper.d))
    with mock.patch.object(ev, "_row_counts", wraps=ev._row_counts) as counts:
        report = ev.evaluate(params, dataset, split, hyper)
    chunks = -(-dataset.n_users // ev.EVAL_BATCH)
    assert counts.call_count == (2 * chunks if tied else chunks)
    assert report == _recomposed(params, dataset, split, hyper,
                                 rank_of=metric_oracle_rank)


@pytest.mark.parametrize("head,calls", [("graph", 1), ("fused", 1),
                                        ("sequential", 0)])
def test_evaluate_propagates_the_graph_once_per_pass(monkeypatch, head, calls):
    monkeypatch.setattr(ev, "EVAL_BATCH", 4)  # 13 users -> 4 chunks
    counted = []
    original = ev.propagated_embeddings

    def counting(*args, **kwargs):
        counted.append(head)
        return original(*args, **kwargs)

    # forward_states propagates through the model module's own name
    monkeypatch.setattr(ev, "propagated_embeddings", counting)
    monkeypatch.setattr(md, "propagated_embeddings", counting)
    dataset = random_dataset(13, 10, seed=9)
    hyper = eval_hyper(scoring_head=head, k=2, n_layers=1)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    ev.evaluate(params, dataset, "validation", hyper)
    assert len(counted) == calls


@pytest.mark.parametrize("head", ["fused", "sequential", "graph"])
def test_evaluate_builds_no_per_position_output(monkeypatch, head):
    def no_gather(*args, **kwargs):
        raise AssertionError("evaluate gathered window items")

    encoded, states = [], []
    original_encode, original_forward = md.seq_encode, ev.forward_states

    def encode(*args, **kwargs):
        out = original_encode(*args, **kwargs)
        encoded.append(out[1])
        return out

    def forward(*args, **kwargs):
        states.append(original_forward(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(gr, "gather_windows", no_gather)
    monkeypatch.setattr(md, "seq_encode", encode)
    monkeypatch.setattr(ev, "forward_states", forward)
    monkeypatch.setattr(ev, "EVAL_BATCH", 4)
    dataset = random_dataset(13, 10, seed=9)
    hyper = eval_hyper(scoring_head=head, k=2, n_layers=2)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    ev.evaluate(params, dataset, "validation", hyper)
    assert len(states) == 4
    assert all(s.E_l is None for s in states)
    assert len(encoded) == (0 if head == "graph" else 4)
    assert not any(E_l is not None for E_l in encoded)


@pytest.mark.parametrize("head", ["fused", "graph"])
def test_evaluate_rejects_a_leaking_graph_it_builds(monkeypatch, head):
    dataset = random_dataset(13, 10, seed=9)
    original = gr.build_adjacency

    def leaking(train, m, n):  # test targets become graph edges
        return original([seq + [dataset.test[u]]
                         for u, seq in enumerate(train)], m, n)

    monkeypatch.setattr(gr, "build_adjacency", leaking)
    hyper = eval_hyper(scoring_head=head, k=2, n_layers=1)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    with pytest.raises(GraphError, match="leaked into the graph"):
        ev.evaluate(params, dataset, "test", hyper)


@pytest.mark.parametrize("split", ["validation", "test"])
def test_a_non_integer_train_item_is_refused(split):
    # 2.5 would be graphed, windowed and ranked as item 2.
    dataset = SplitDataset(2, 6, [[0, 2.5], [3, 4]], [3, 5], [4, 0])
    hyper = tr.Hyperparams(c=3, d=4, k=1, n_layers=1, n_heads=1, max_epochs=0)
    params = init_model(2, 6, 3, hyper.seq_config(), seed=0)
    with pytest.raises(IndexError, match="item ids must be integers"):
        ev.evaluate(params, dataset, split, hyper)
    with pytest.raises(IndexError, match="item ids must be integers"):
        tr.fit(dataset, hyper)


def test_evaluate_records_no_tape(monkeypatch):
    made = []
    original = ad._make

    def recording(data, parents, backward):
        out = original(data, parents, backward)
        made.append(out.node.backward is not None or bool(out.node.parents))
        return out

    monkeypatch.setattr(ad, "_make", recording)
    dataset = random_dataset(13, 10, seed=9)
    hyper = eval_hyper(scoring_head="fused", k=2, n_layers=1)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), seed=0)
    ev.evaluate(params, dataset, "validation", hyper)
    assert made and not any(made)
    # recording is back on after the pass
    assert ad.square(params.tables.user).node.backward is not None
