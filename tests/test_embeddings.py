"""Embedding tables, window truncation, batch assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrgsrec import embeddings as emb
from mrgsrec.errors import DataError


class TestTruncateWindow:
    def test_longer_than_window(self):
        assert emb.truncate_window([1, 2, 3, 4], 2, -1) == ([3, 4], 2)

    def test_padding_case(self):
        assert emb.truncate_window([7], 4, -1) == ([-1, -1, -1, 7], 1)

    def test_empty_raises(self):
        with pytest.raises(DataError):
            emb.truncate_window([], 3, -1)

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=30),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_slice_oracle(self, seq, c):
        window, length = emb.truncate_window(seq, c, -1)
        tail = seq[-c:]
        assert length == len(tail)
        assert window == [-1] * (c - len(tail)) + tail
        assert len(window) == c


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

