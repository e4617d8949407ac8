"""Graph encoder: normalized adjacency construction, propagation, gathers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mrgsrec import autodiff as ad
from mrgsrec import graph as gr
from mrgsrec.data import SplitDataset
from mrgsrec.embeddings import build_batch, init_tables
from mrgsrec.errors import GraphError
from mrgsrec.evaluation import evaluate
from mrgsrec.model import encoder_paths, forward_states, init_model
from mrgsrec.seqenc import SeqEncoderConfig
from mrgsrec.training import Hyperparams, fit
from mrgsrec.verification import dense_normalized_adjacency, restricted_and_full


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
        assert gr.interaction_matrix([[0, 0, 0]], 1, 1).toarray().tolist() \
            == [[1.0]]
        adjacency = gr.build_adjacency([[0, 0, 0]], 1, 1)
        assert adjacency.adj[:1, 1:].toarray().tolist() == [[1.0]]

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
        assert (np.diff(adjacency.adj.indptr) == 0).sum() == 2

    def test_empty_user_allowed_if_edges_exist(self):
        adjacency = gr.build_adjacency([[0], []], 2, 1)
        assert np.diff(adjacency.adj.indptr)[1] == 0


class TestPropagate:
    """One propagation layer: ``ad.spmm`` by the normalized adjacency."""

    def test_single_edge_swaps_rows(self):
        adjacency = gr.build_adjacency([[0]], 1, 1)
        e = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ad.spmm(adjacency.adj, e).data
        np.testing.assert_array_equal(out, [[3.0, 4.0], [1.0, 2.0]])

    def test_zero_input_zero_output(self):
        adjacency = gr.build_adjacency(random_train(5, 6, 1), 5, 6)
        out = ad.spmm(adjacency.adj, ad.Tensor(np.zeros((11, 3)))).data
        np.testing.assert_array_equal(out, np.zeros((11, 3)))

    def test_three_layers_match_dense_power_oracle(self):
        m, n = 20, 30  # 50 nodes
        train = random_train(m, n, 2)
        adjacency = gr.build_adjacency(train, m, n)
        dense = dense_normalized_adjacency(train, m, n)
        x = rng(3).normal(size=(m + n, 4))
        got = ad.Tensor(x)
        for _ in range(3):
            got = ad.spmm(adjacency.adj, got)
        want = np.linalg.matrix_power(dense, 3) @ x
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_linearity(self):
        adjacency = gr.build_adjacency(random_train(8, 9, 4), 8, 9)
        g = rng(5)
        e1, e2 = g.normal(size=(17, 3)), g.normal(size=(17, 3))
        a, b = 0.7, -1.3
        left = ad.spmm(adjacency.adj, ad.Tensor(a * e1 + b * e2)).data
        right = a * ad.spmm(adjacency.adj, ad.Tensor(e1)).data \
            + b * ad.spmm(adjacency.adj, ad.Tensor(e2)).data
        np.testing.assert_allclose(left, right, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_boundedness(self, seed):
        m, n = 10, 14
        adjacency = gr.build_adjacency(random_train(m, n, seed + 30), m, n)
        e = rng(seed).uniform(-1.0, 1.0, size=(m + n, 5))
        out = ad.spmm(adjacency.adj, ad.Tensor(e)).data
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


class TestNodeIdRange:
    """A user or window item id outside [0, limit) raises IndexError before
    it reaches a node row: -1 would read the table's last row."""

    make = TestGraphEncode.make

    @pytest.mark.parametrize("user", [-1, 4])
    def test_gather_users_rejects(self, user):
        tables, adjacency, batch = self.make()
        batch.user_ids[0] = user
        nodes = gr.propagated_embeddings(tables, adjacency, 1)
        with pytest.raises(IndexError, match=r"user id out of range \[0, 4\)"):
            gr.gather_users(nodes, batch, tables.n_users)

    @pytest.mark.parametrize("item", [-1, 6])
    def test_gather_windows_rejects(self, item):
        tables, adjacency, batch = self.make()
        batch.item_windows[0, -1] = item  # the last slot is always valid
        nodes = gr.propagated_embeddings(tables, adjacency, 1)
        with pytest.raises(IndexError, match=r"item id out of range \[0, 6\)"):
            gr.gather_windows(nodes, batch, tables.n_users, tables.n_items)
        with pytest.raises(IndexError, match="item id out of range"):
            gr.window_nodes(batch, tables.n_users, tables.n_items)

    @pytest.mark.parametrize("user", [-1, 4])
    def test_graph_only_forward_states_rejects_before_propagating(
            self, monkeypatch, user):
        _, adjacency, batch = self.make()
        params = init_model(4, 6, 3, SeqEncoderConfig(d=4, n_layers=1), seed=0)
        batch.user_ids[0] = user
        hops = []
        monkeypatch.setattr(ad, "spmm", lambda *args: hops.append(args))
        with pytest.raises(IndexError, match="user id out of range"):
            forward_states(params, batch, adjacency, 2,
                           **encoder_paths("graph"))
        assert not hops

    @pytest.mark.parametrize("head, what", [("sequential", "row"),
                                            ("graph", "user")])
    def test_forward_states_rejects_a_non_integer_user(self, head, what):
        # build_batch keeps the caller's 1.7, which would read user 1
        tables, adjacency, _ = self.make()
        params = init_model(4, 6, 3, SeqEncoderConfig(d=4, n_layers=1), seed=0)
        batch = build_batch([1.7], [[0, 2]], 3, tables.padding_id)
        with pytest.raises(IndexError,
                           match=f"{what} ids must be integers, got float64"):
            forward_states(params, batch, adjacency, 2, **encoder_paths(head))


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
        return ad.add(ad.tsum(ad.square(ad.add(e_g, -target))),
                      ad.tsum(ad.square(E_g)))

    report = ad.finite_difference_check(
        loss_fn, {"user": tables.user, "item": tables.item})
    for name, entry in report.items():
        assert entry["passed"], f"{name}: {entry}"


class TestRestrictedRows:
    """``propagated_embeddings(rows=...)`` equals the full table's rows."""

    @pytest.mark.parametrize("layer_mean", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_values_and_table_gradients_bit_identical(self, k, layer_mean):
        m, n, d = 9, 14, 3
        tables = init_tables(m, n, 2, d, seed=k)
        g = rng(40 + k)
        tables.user.data[...] = g.normal(size=tables.user.shape)
        tables.item.data[:n] = g.normal(size=(n, d))
        adjacency = gr.build_adjacency(random_train(m, n, 41 + k), m, n)
        rows = np.array([0, 2, 3, 8, 9, 15, 22])  # users and items
        weights = g.normal(size=(rows.size, d))
        full, restricted = restricted_and_full(tables, adjacency, k,
                                               layer_mean, rows, weights)
        assert restricted[0].shape == (rows.size, d)
        for a, b in zip(full, restricted):
            assert a.tobytes() == b.tobytes()

    def test_node_positions_map_into_the_row_set(self):
        rows = np.array([1, 4, 6, 10])
        np.testing.assert_array_equal(
            gr.node_positions(rows, np.array([[10, 1], [4, 4]])),
            [[3, 0], [1, 1]])
        np.testing.assert_array_equal(gr.node_positions(None, [7, 2]), [7, 2])

    @pytest.mark.parametrize("rows,ids", [
        ([1, 4, 6], [4, 5]),      # between two rows
        ([1, 4, 6], [0]),         # before the first
        ([1, 4, 6], [6, 7]),      # past the last
        ([], [0]),                # empty row set
    ])
    def test_id_outside_the_row_set_raises(self, rows, ids):
        with pytest.raises(GraphError, match="not among the propagated rows"):
            gr.node_positions(np.asarray(rows, dtype=np.int64), np.asarray(ids))

    def test_a_non_integer_id_is_not_in_the_row_set(self):
        # 1.5 would be truncated to node 1, which is in the set
        with pytest.raises(GraphError, match="node 1.5 is not among"):
            gr.node_positions(np.array([0, 1, 4]), [1.5])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def reference_propagation(tables, adjacency, k, layer_mean, rows=None):
    """``propagated_embeddings`` written on ``ad.spmm(adjacency.adj, ...)``
    and its row blocks, as it was before the full hop read R alone."""
    current = ad.concat([tables.user, tables.item_rows()], axis=0)
    layers = [current]
    for hop in range(k):
        last = rows is not None and hop == k - 1
        current = ad.spmm(adjacency.adj[rows] if last else adjacency.adj,
                          current)
        layers.append(current)
    if rows is not None:
        if k == 0:
            layers = [ad.lookup(current, rows)]
        elif layer_mean:
            layers[:-1] = [ad.lookup(layer, rows) for layer in layers[:-1]]
    if layer_mean and len(layers) > 1:
        total = layers[0]
        for extra in layers[1:]:
            total = ad.add(total, extra)
        return ad.mul(total, 1.0 / len(layers))
    return layers[-1]


ROW_KINDS = ("none", "users", "all users", "items", "mixed", "empty")


@st.composite
def bipartite_graphs(draw):
    """(train, m, n, seed): users with empty histories and items nobody
    saw are zero-degree nodes; at least one edge exists."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    train = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5),
                          min_size=m, max_size=m)
                 .filter(lambda t: any(t)))
    return train, m, n, draw(st.integers(0, 2**32 - 1))


def product_build(train, m, n):
    """D^-1/2 A D^-1/2 as two sparse products over the stacked (M+N, M+N)
    A, the way ``build_adjacency`` formed it before it normalized R."""
    r = gr.interaction_matrix(train, m, n)
    a = sp.bmat([[None, r], [r.T, None]], format="csr")
    degrees = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    d_half = sp.diags(inv_sqrt)
    adj = (d_half @ a @ d_half).tocsr()
    adj.sort_indices()
    return adj


class TestAdjacencyStructure:
    """The graph derived from R has the structure the full hop reads."""

    @given(bipartite_graphs())
    @settings(max_examples=100, deadline=None)
    def test_adjacency_equals_the_product_build(self, graph):
        train, m, n, _ = graph
        got, want = gr.build_adjacency(train, m, n).adj, product_build(train, m, n)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(bits(got.data), bits(want.data))
        for field in ("indices", "indptr"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @given(bipartite_graphs())
    @settings(max_examples=100, deadline=None)
    def test_adjacency_is_bipartite_symmetric_and_sorted(self, graph):
        train, m, n, _ = graph
        adjacency = gr.build_adjacency(train, m, n)
        adj = adjacency.adj
        assert (adjacency.n_users, adjacency.n_items) == (m, n)
        assert adj.shape == adjacency.shape == (m + n, m + n)
        rows = np.repeat(np.arange(m + n), np.diff(adj.indptr))
        assert np.array_equal(rows < m, adj.indices >= m)  # bipartite
        later = np.diff(adj.indices) > 0
        assert later[rows[1:] == rows[:-1]].all()  # sorted within each row
        assert adj.has_sorted_indices
        mirror = adj.T.tocsr()
        mirror.sort_indices()
        assert np.array_equal(mirror.indptr, adj.indptr)
        assert np.array_equal(mirror.indices, adj.indices)
        assert np.array_equal(bits(mirror.data), bits(adj.data))

    @given(bipartite_graphs())
    @settings(max_examples=100, deadline=None)
    def test_r_is_the_user_block_and_shares_its_memory(self, graph):
        train, m, n, _ = graph
        adjacency = gr.build_adjacency(train, m, n)
        adj, r = adjacency.adj, adjacency.r
        assert r.shape == (m, n)
        assert np.array_equal(bits(r.toarray()), bits(adj[:m, m:].toarray()))
        assert np.shares_memory(r.data, adj.data)
        assert np.shares_memory(r.indptr, adj.indptr)
        assert adjacency.T is adjacency


def pick_rows(kind, m, n, g):
    """A sorted node set of the given kind (None for the whole table)."""
    nodes = {"users": np.arange(m), "all users": np.arange(m),
             "items": np.arange(m, m + n), "mixed": np.arange(m + n),
             "empty": np.arange(0)}.get(kind)
    if kind in ("users", "items", "mixed") and nodes.size:
        nodes = np.sort(g.choice(nodes, g.integers(1, nodes.size + 1),
                                 replace=False))
    return nodes


class TestBlockHopBitIdentity:
    """The full-hop operator gives ``adj``'s products bit for bit, and every
    restricted hop multiplies ``adj[rows]`` itself."""

    @given(bipartite_graphs(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_products_equal_the_adjacency_rows(self, graph, d):
        train, m, n, seed = graph
        g = rng(seed)
        adjacency = gr.build_adjacency(train, m, n)
        adj = adjacency.adj
        x = g.normal(size=(m + n, d))
        y = g.normal(size=(m + n, d))
        assert adjacency.shape == adj.shape
        assert np.array_equal(bits(adjacency @ x), bits(adj @ x))
        assert np.array_equal(bits(adjacency.T @ y), bits(adj.T @ y))

    @given(bipartite_graphs(), st.sampled_from(ROW_KINDS), st.integers(0, 3),
           st.booleans(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_propagation_values_and_gradients_equal_the_reference(
            self, graph, kind, k, layer_mean, d):
        train, m, n, seed = graph
        g = rng(seed)
        adjacency = gr.build_adjacency(train, m, n)
        rows = pick_rows(kind, m, n, g)
        tables = init_tables(m, n, 1, d, seed=0)
        tables.user.data[...] = g.normal(size=(m, d))
        tables.item.data[:n] = g.normal(size=(n, d))
        weights = g.normal(size=(m + n if rows is None else rows.size, d))
        out = []
        for propagate in (reference_propagation, gr.propagated_embeddings):
            tables.user.zero_grad()
            tables.item.zero_grad()
            nodes = propagate(tables, adjacency, k, layer_mean, rows=rows)
            ad.tsum(ad.mul(nodes, weights)).backward()
            out.append([bits(a) for a in
                        (nodes.data, tables.user.grad, tables.item.grad)])
        for want, got in zip(*out):
            assert np.array_equal(want, got)


def test_interaction_matrix_matches_set_oracle():
    train = [[3, 1, 3, 0], [], [2, 2], [4, 0, 1, 4, 3]]
    r = gr.interaction_matrix(train, 5, 5)
    dense = np.zeros((5, 5))
    for u, seq in enumerate(train):
        dense[u, sorted(set(seq))] = 1.0
    np.testing.assert_array_equal(r.toarray(), dense)
    assert r.has_sorted_indices and np.all(r.data == 1.0)


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

    @pytest.mark.parametrize("split,leak", [
        ("validation", lambda ds: ds.val), ("test", lambda ds: ds.test)])
    def test_leak_of_a_later_user_named(self, split, leak):
        dataset = SplitDataset(3, 6, [[0, 1], [2, 3], [1, 4]], [2, 4, 5],
                               [3, 5, 0])
        train = [list(seq) for seq in dataset.train]
        train[2].append(leak(dataset)[2])
        bad = gr.build_adjacency(train, 3, 6)
        with pytest.raises(GraphError, match=f"{split} target of user 2 "):
            gr.check_leakage(bad, dataset)

    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_a_non_integer_target_is_refused(self, split):
        # 2.5 would be read as item 2, whose edge the graph may hold
        dataset = SplitDataset(1, 4, [[0, 1]], [2], [3])
        setattr(dataset, {"validation": "val", "test": "test"}[split], [2.5])
        adjacency = gr.build_adjacency(dataset.train, 1, 4)
        with pytest.raises(IndexError, match=f"{split} target ids must be "
                                             "integers, got float64"):
            gr.check_leakage(adjacency, dataset)

    def test_fit_and_evaluate_take_the_one_checked_graph(self, monkeypatch):
        dataset = SplitDataset(2, 6, [[0, 1, 2], [3, 4]], [3, 5], [4, 0])
        original = gr.build_adjacency

        def leaking(train, m, n):  # test targets become graph edges
            return original([seq + [dataset.test[u]]
                             for u, seq in enumerate(train)], m, n)

        monkeypatch.setattr(gr, "build_adjacency", leaking)
        hyper = Hyperparams(c=3, d=4, k=1, n_layers=1, n_heads=1,
                            scoring_head="graph", n_negatives=1, max_epochs=0)
        with pytest.raises(GraphError, match="leaked into the graph"):
            fit(dataset, hyper)
        params = init_model(2, 6, 3, hyper.seq_config(), seed=0)
        with pytest.raises(GraphError, match="leaked into the graph"):
            evaluate(params, dataset, "test", hyper)

    def test_target_also_in_train_is_not_leakage(self):
        dataset = SplitDataset(1, 4, [[0, 1]], [0], [1])  # revisits
        adjacency = gr.build_adjacency(dataset.train, 1, 4)
        gr.check_leakage(adjacency, dataset)  # edges come from train
