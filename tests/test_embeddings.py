"""Embedding tables, the flat layout, window and batch assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_ops
from mrgsrec import embeddings as emb
from mrgsrec.errors import DataError


def window_of(sequence, c, pad_value=-1):
    """One-row ``build_batch``: (window, valid length) as Python values."""
    batch = emb.build_batch([0], [sequence], c, pad_value)
    return batch.item_windows[0].tolist(), int(batch.valid_lengths[0])


class TestBuildBatchWindow:
    def test_longer_than_window(self):
        assert window_of([1, 2, 3, 4], 2) == ([3, 4], 2)

    def test_padding_case(self):
        assert window_of([7], 4) == ([-1, -1, -1, 7], 1)

    def test_empty_raises(self):
        with pytest.raises(DataError):
            window_of([], 3)

    def test_empty_sequence_among_others_raises(self):
        with pytest.raises(DataError):
            emb.build_batch([0, 1, 2], [[1, 2], [], [3]], 3, -1)

    @pytest.mark.parametrize("c", [0, -2])
    def test_window_length_below_one_raises(self, c):
        with pytest.raises(ValueError):
            emb.build_batch([0], [[1, 2]], c, -1)

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=30),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_slice_oracle(self, seq, c):
        window, length = window_of(seq, c)
        tail = seq[-c:]
        assert length == len(tail)
        assert window == [-1] * (c - len(tail)) + tail
        assert len(window) == c


@st.composite
def batches(draw):
    """Users, their sequences of 1..3c items, c in 1..6 and any int64 pad."""
    c = draw(st.integers(1, 6))
    sequences = draw(st.lists(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=3 * c),
        min_size=1, max_size=8))
    users = draw(st.lists(st.integers(0, 10**6), min_size=len(sequences),
                          max_size=len(sequences)))
    pad = draw(st.integers(-2**63, 2**63 - 1))
    return users, sequences, c, pad


@given(batches())
@settings(max_examples=200, deadline=None)
def test_build_batch_equals_per_user_reference(args):
    got, want = emb.build_batch(*args), composed_ops.build_batch(*args)
    for name in ("user_ids", "item_windows", "valid_lengths"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_window_batch_on_a_slice_of_the_flat_layout_equals_build_batch(
        args, data):
    # evaluate flattens every user once and windows one slice per chunk
    users, sequences, c, pad = args
    start = data.draw(st.integers(0, len(sequences) - 1))
    stop = data.draw(st.integers(start + 1, len(sequences)))
    lengths, items = emb.flatten(sequences)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    got = emb.window_batch(users[start:stop], lengths[start:stop],
                           items[offsets[start]:offsets[stop]], c, pad)
    want = emb.build_batch(users[start:stop], sequences[start:stop], c, pad)
    for name in ("user_ids", "item_windows", "valid_lengths"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@given(st.lists(st.lists(st.integers(-2**63, 2**63 - 1), max_size=6),
                max_size=8))
@settings(max_examples=100, deadline=None)
def test_flatten_round_trip(sequences):
    lengths, items = emb.flatten(sequences)
    assert lengths.dtype == items.dtype == np.int64
    assert lengths.tolist() == [len(s) for s in sequences]
    pieces = np.split(items, np.cumsum(lengths)[:-1]) if sequences else []
    assert [p.tolist() for p in pieces] == sequences


@pytest.mark.parametrize("sequences", [[[1.7, 2]], [[0], [3, 2.0]],
                                       [[1, None]], [[np.float64(4)]]])
def test_flatten_refuses_a_non_integer_item(sequences):
    with pytest.raises(IndexError, match="item ids must be integers"):
        emb.flatten(sequences)
    with pytest.raises(IndexError, match="item ids must be integers"):
        emb.build_batch(list(range(len(sequences))), sequences, 3, 9)


def test_flatten_takes_integer_kinds_as_their_values():
    # A Python bool is an int, so True passes as item 1.
    lengths, items = emb.flatten([[np.int32(3), True], [np.uint8(2)]])
    assert lengths.tolist() == [2, 1] and items.tolist() == [3, 1, 2]


class TestInitTables:
    def test_deterministic_under_seed(self):
        a = emb.init_tables(5, 7, 4, 8, seed=3)
        b = emb.init_tables(5, 7, 4, 8, seed=3)
        assert np.array_equal(a.user.data, b.user.data)
        assert np.array_equal(a.item.data, b.item.data)
        assert np.array_equal(a.positional.data, b.positional.data)

    def test_padding_row_zero(self):
        tables = emb.init_tables(3, 9, 4, 6, seed=0)
        np.testing.assert_array_equal(tables.item.data[9], np.zeros(6))

    def test_sample_mean_within_three_sigma(self):
        # > 1e6 entries pooled across the three tables
        tables = emb.init_tables(4000, 4000, 100, 128, seed=1)
        pooled = np.concatenate([
            tables.user.data.ravel(),
            tables.item.data[:-1].ravel(),
            tables.positional.data.ravel()])
        assert pooled.size >= 10**6
        sigma_mean = 0.02 / np.sqrt(pooled.size)
        assert abs(pooled.mean()) < 3 * sigma_mean

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            emb.init_tables(0, 5, 3, 4, seed=0)


class TestEmbedSequence:
    def test_additive_composition_d2(self):
        tables = emb.init_tables(1, 1, 1, 2, seed=0)
        tables.item.data[0] = [1.0, 0.0]
        tables.positional.data[0] = [0.0, 1.0]
        batch = emb.build_batch([0], [[0]], c=1, pad_value=1)
        _, E = emb.embed_sequence(batch, tables)
        np.testing.assert_allclose(E.data[0, 0], [1.0, 1.0])

    def test_zero_positional_gives_raw_items(self):
        tables = emb.init_tables(2, 5, 3, 4, seed=2)
        tables.positional.data[...] = 0.0
        batch = emb.build_batch([0, 1], [[1, 2, 3], [4]], 3, tables.padding_id)
        _, E = emb.embed_sequence(batch, tables)
        np.testing.assert_array_equal(E.data[0], tables.item.data[[1, 2, 3]])
        np.testing.assert_array_equal(E.data[1, 2], tables.item.data[4])

    def test_padding_slots_carry_padding_row_without_positional(self):
        tables = emb.init_tables(1, 3, 4, 2, seed=3)
        batch = emb.build_batch([0], [[1]], 4, tables.padding_id)
        _, E = emb.embed_sequence(batch, tables)
        for slot in range(3):
            np.testing.assert_array_equal(E.data[0, slot], np.zeros(2))

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_elementwise_oracle(self, seed):
        g = np.random.Generator(np.random.PCG64(seed))
        tables = emb.init_tables(6, 9, 5, 3, seed=seed)
        seqs = [g.integers(0, 9, size=g.integers(1, 8)).tolist()
                for _ in range(4)]
        batch = emb.build_batch(list(range(4)), seqs, 5, tables.padding_id)
        e_u, E = emb.embed_sequence(batch, tables)
        for b in range(4):
            np.testing.assert_array_equal(e_u.data[b], tables.user.data[b])
            for slot in range(5):
                item = batch.item_windows[b, slot]
                expect = tables.item.data[item].copy()
                if batch.valid_mask()[b, slot]:
                    expect = expect + tables.positional.data[slot]
                np.testing.assert_allclose(E.data[b, slot], expect)

    def test_out_of_range_user(self):
        tables = emb.init_tables(2, 3, 2, 2, seed=0)
        batch = emb.build_batch([5], [[0]], 2, tables.padding_id)
        with pytest.raises(IndexError):
            emb.embed_sequence(batch, tables)

    def test_out_of_range_item(self):
        tables = emb.init_tables(2, 3, 2, 2, seed=0)
        batch = emb.build_batch([0], [[9]], 2, tables.padding_id)
        with pytest.raises(IndexError):
            emb.embed_sequence(batch, tables)

    def test_a_non_integer_user_raises(self):
        # the batch keeps the caller's 1.7, which would embed user 1
        tables = emb.init_tables(2, 3, 2, 2, seed=0)
        batch = emb.build_batch([1.7], [[0]], 2, tables.padding_id)
        with pytest.raises(IndexError,
                           match="row ids must be integers, got float64"):
            emb.embed_sequence(batch, tables)

    def test_lookup_is_pure(self):
        tables = emb.init_tables(2, 3, 2, 2, seed=0)
        before = tables.item.data.copy()
        batch = emb.build_batch([0], [[1, 2]], 2, tables.padding_id)
        emb.embed_sequence(batch, tables)
        np.testing.assert_array_equal(tables.item.data, before)


class TestValidMask:
    def test_right_alignment(self):
        batch = emb.build_batch([0, 1], [[3], [4, 5, 6]], 3, -1)
        np.testing.assert_array_equal(
            batch.valid_mask(),
            [[False, False, True], [True, True, True]])

