"""Graph encoder: normalized adjacency construction, propagation, gathers."""

import numpy as np
import pytest

from mrgsrec import autodiff as ad
from mrgsrec import graph as gr
from mrgsrec.data import SplitDataset
from mrgsrec.embeddings import build_batch, init_tables
from mrgsrec.errors import GraphError
from mrgsrec.verification import dense_normalized_adjacency


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_train(m, n, seed, max_len=6):
    g = rng(seed)
    return [g.integers(0, n, size=g.integers(1, max_len + 1)).tolist()
            for _ in range(m)]


class TestBuild:
    def test_single_edge(self):
        adjacency = gr.build_adjacency([[0]], 1, 1)
        np.testing.assert_array_equal(adjacency.adj.toarray(),
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_degree_weights_closed_form(self):
        # user 0 -> items {0, 1}; user 1 -> item 1
        adjacency = gr.build_adjacency([[0, 1], [1]], 2, 2)
        dense = adjacency.adj.toarray()
        assert dense[0, 2] == pytest.approx(1 / np.sqrt(2))   # deg 2 x deg 1
        assert dense[0, 3] == pytest.approx(0.5)              # deg 2 x deg 2
        assert dense[1, 3] == pytest.approx(1 / np.sqrt(2))

    def test_duplicates_collapse_to_binary(self):
        adjacency = gr.build_adjacency([[0, 0, 0]], 1, 1)
        assert adjacency.interactions.toarray().tolist() == [[1.0]]

    def test_empty_graph_raises(self):
        with pytest.raises(GraphError):
            gr.build_adjacency([[]], 1, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_oracle(self, seed):
        g = rng(seed + 100)
        m, n = int(g.integers(3, 51)), int(g.integers(3, 81))
        train = random_train(m, n, seed)
        adjacency = gr.build_adjacency(train, m, n)
        dense = dense_normalized_adjacency(train, m, n)
        np.testing.assert_allclose(adjacency.adj.toarray(), dense, atol=1e-12)

    def test_symmetry_exact_and_blocks_zero(self):
        train = random_train(12, 17, 7)
        adjacency = gr.build_adjacency(train, 12, 17)
        gap = adjacency.adj - adjacency.adj.T
        assert gap.nnz == 0 or np.abs(gap.data).max() == 0.0
        dense = adjacency.adj.toarray()
        assert not dense[:12, :12].any()
        assert not dense[12:, 12:].any()

    def test_isolated_nodes_have_zero_rows(self):
        adjacency = gr.build_adjacency([[0], []], 2, 2)  # user 1, item 1 isolated
        dense = adjacency.adj.toarray()
        assert not dense[1].any()
        assert not dense[3].any()
        assert adjacency.n_isolated == 2

    def test_empty_user_allowed_if_edges_exist(self):
        adjacency = gr.build_adjacency([[0], []], 2, 1)
        assert adjacency.degrees[1] == 0


class TestPropagate:
    def test_single_edge_swaps_rows(self):
        adjacency = gr.build_adjacency([[0]], 1, 1)
        e = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = gr.propagate(e, adjacency).data
        np.testing.assert_array_equal(out, [[3.0, 4.0], [1.0, 2.0]])

    def test_zero_input_zero_output(self):
        adjacency = gr.build_adjacency(random_train(5, 6, 1), 5, 6)
        out = gr.propagate(ad.Tensor(np.zeros((11, 3))), adjacency).data
        np.testing.assert_array_equal(out, np.zeros((11, 3)))

    def test_three_layers_match_dense_power_oracle(self):
        m, n = 20, 30  # 50 nodes
        train = random_train(m, n, 2)
        adjacency = gr.build_adjacency(train, m, n)
        dense = dense_normalized_adjacency(train, m, n)
        x = rng(3).normal(size=(m + n, 4))
        got = ad.Tensor(x)
        for _ in range(3):
            got = gr.propagate(got, adjacency)
        want = np.linalg.matrix_power(dense, 3) @ x
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_linearity(self):
        adjacency = gr.build_adjacency(random_train(8, 9, 4), 8, 9)
        g = rng(5)
        e1, e2 = g.normal(size=(17, 3)), g.normal(size=(17, 3))
        a, b = 0.7, -1.3
        left = gr.propagate(ad.Tensor(a * e1 + b * e2), adjacency).data
        right = a * gr.propagate(ad.Tensor(e1), adjacency).data \
            + b * gr.propagate(ad.Tensor(e2), adjacency).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_boundedness(self, seed):
        m, n = 10, 14
        adjacency = gr.build_adjacency(random_train(m, n, seed + 30), m, n)
        e = rng(seed).uniform(-1.0, 1.0, size=(m + n, 5))
        out = gr.propagate(ad.Tensor(e), adjacency).data
        assert np.abs(out).max() <= 1.0 + 1e-12


def graph_encode(tables, adjacency, k, batch, layer_mean=False):
    """The graph path of ``model.forward_states``: propagate, then gather."""
    nodes = gr.propagated_embeddings(tables, adjacency, k, layer_mean)
    return gr.gather_batch(nodes, batch, tables.n_users, tables.n_items)


class TestGraphEncode:
    def make(self, m=4, n=6, c=3, d=5, seed=0):
        tables = init_tables(m, n, c, d, seed=seed)
        train = random_train(m, n, seed + 1, max_len=4)
        adjacency = gr.build_adjacency(train, m, n)
        g = rng(seed + 2)
        seqs = [g.integers(0, n, size=g.integers(1, c + 1)).tolist()
                for _ in range(m)]
        batch = build_batch(list(range(m)), seqs, c, tables.padding_id)
        return tables, adjacency, batch

    def test_k0_returns_raw_embeddings(self):
        tables, adjacency, batch = self.make()
        e_g, E_g = graph_encode(tables, adjacency, 0, batch)
        np.testing.assert_array_equal(e_g.data, tables.user.data[batch.user_ids])
        mask = batch.valid_mask()
        for b in range(4):
            for slot in range(3):
                if mask[b, slot]:
                    np.testing.assert_array_equal(
                        E_g.data[b, slot],
                        tables.item.data[batch.item_windows[b, slot]])
                else:
                    np.testing.assert_array_equal(E_g.data[b, slot],
                                                  np.zeros(5))

    def test_shape_contract(self):
        tables, adjacency, batch = self.make()
        e_g, E_g = graph_encode(tables, adjacency, 2, batch)
        assert e_g.shape == (4, 5)
        assert E_g.shape == (4, 3, 5)

    def test_gather_matches_manual_row_index_oracle(self):
        tables, adjacency, batch = self.make(seed=3)
        k = 2
        e_g, E_g = graph_encode(tables, adjacency, k, batch)
        nodes = np.concatenate([tables.user.data, tables.item.data[:-1]])
        for _ in range(k):
            nodes = adjacency.adj @ nodes
        mask = batch.valid_mask()
        for b in range(4):
            np.testing.assert_allclose(e_g.data[b], nodes[batch.user_ids[b]])
            for slot in range(3):
                expect = nodes[4 + batch.item_windows[b, slot]] \
                    if mask[b, slot] else np.zeros(5)
                np.testing.assert_allclose(E_g.data[b, slot], expect)

    def test_layer_mean_option(self):
        tables, adjacency, batch = self.make(seed=4)
        e_last, _ = graph_encode(tables, adjacency, 2, batch)
        e_mean, _ = graph_encode(tables, adjacency, 2, batch,
                                 layer_mean=True)
        nodes0 = np.concatenate([tables.user.data, tables.item.data[:-1]])
        nodes1 = adjacency.adj @ nodes0
        nodes2 = adjacency.adj @ nodes1
        manual = (nodes0 + nodes1 + nodes2) / 3.0
        np.testing.assert_allclose(e_mean.data,
                                   manual[batch.user_ids], atol=1e-12)
        assert not np.allclose(e_last.data, e_mean.data)

    def test_negative_k_rejected(self):
        tables, adjacency, batch = self.make()
        with pytest.raises(ValueError):
            gr.propagated_embeddings(tables, adjacency, -1)


def test_gradient_through_propagation_layers():
    m, n, d, c, k = 6, 8, 4, 3, 2  # 14 nodes <= 30, d <= 8
    tables = init_tables(m, n, c, d, seed=11)
    g = rng(12)
    tables.user.data[...] = g.normal(0.0, 0.5, size=tables.user.data.shape)
    tables.item.data[...] = g.normal(0.0, 0.5, size=tables.item.data.shape)
    tables.item.data[n] = 0.0
    adjacency = gr.build_adjacency(random_train(m, n, 13), m, n)
    seqs = [g.integers(0, n, size=g.integers(1, c + 1)).tolist()
            for _ in range(m)]
    batch = build_batch(list(range(m)), seqs, c, tables.padding_id)
    target = g.normal(size=(m, d))

    def loss_fn():
        e_g, E_g = graph_encode(tables, adjacency, k, batch)
        return ad.add(ad.tsum(ad.square(ad.sub(e_g, target))),
                      ad.tsum(ad.square(E_g)))

    report = ad.finite_difference_check(
        loss_fn, {"user": tables.user, "item": tables.item})
    for name, entry in report.items():
        assert entry["passed"], f"{name}: {entry}"


class TestLeakage:
    def test_clean_split_passes(self):
        dataset = SplitDataset(2, 5, [[0, 1], [2]], [2, 3], [3, 4])
        adjacency = gr.build_adjacency(dataset.train, 2, 5)
        gr.check_leakage(adjacency, dataset)  # must not raise

    def test_leaked_target_detected(self):
        dataset = SplitDataset(1, 4, [[0, 1]], [2], [3])
        bad = gr.build_adjacency([[0, 1, 2]], 1, 4)  # val item edge present
        with pytest.raises(GraphError):
            gr.check_leakage(bad, dataset)

    def test_target_also_in_train_is_not_leakage(self):
        dataset = SplitDataset(1, 4, [[0, 1]], [0], [1])  # revisits
        adjacency = gr.build_adjacency(dataset.train, 1, 4)
        gr.check_leakage(adjacency, dataset)  # edges come from train
