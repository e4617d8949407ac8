"""Trainer: Adam, negative sampling, step/fit behavior, determinism."""

import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_ops
from mrgsrec import autodiff as ad
from mrgsrec import config as cfg
from mrgsrec import graph as gr
from mrgsrec import model as md
from mrgsrec import training as tr
from mrgsrec.data import SplitDataset
from mrgsrec.errors import DataError, GraphError, NumericError
from mrgsrec.evaluation import evaluate
from mrgsrec.graph import build_adjacency, window_nodes
from mrgsrec.losses import LossWeights
from mrgsrec.model import init_model
from mrgsrec.synthetic import generate_clustered_markov, popularity_hr_at_k
from mrgsrec.verification import (component_loss_fn, make_gradient_instance,
                                  random_dataset)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def small_hyper(**overrides):
    base = dict(c=4, d=8, k=1, n_layers=1, n_heads=2, dropout_rate=0.0,
                weights=LossWeights(1.0, 0.5, 1.0, 0.5, lambda_reg=1e-3),
                n_negatives=2, batch_size=4, max_epochs=3, patience=2,
                seed=0, learning_rate=1e-3)
    base.update(overrides)
    return tr.Hyperparams(**base)


def setup_instance(seed=0, m=6, n=12, **hyper_overrides):
    hyper = small_hyper(**hyper_overrides)
    dataset = random_dataset(m, n, seed)
    params = init_model(m, n, hyper.c, hyper.seq_config(), seed)
    adjacency = build_adjacency(dataset.train, m, n)
    examples = tr.build_examples(dataset)
    optimizer = tr.Adam(params.parameters(), lr=hyper.learning_rate,
                        beta1=hyper.beta1, beta2=hyper.beta2,
                        eps=hyper.epsilon)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    return hyper, dataset, params, adjacency, examples, optimizer, rng


def adam_reference(theta, m, v, grad, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Unchunked closed form of one Adam step: (theta, m, v) after step t."""
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * (grad * grad)
    theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return theta, m, v


class TestAdam:
    def test_matches_reference_formula(self):
        # Blocks straddling the chunk size, a 2-D block over several chunks,
        # and a block without a gradient; the chunk walk must not move a bit.
        g = np.random.Generator(np.random.PCG64(0))
        shapes = [(tr.ADAM_CHUNK - 1,), (tr.ADAM_CHUNK,), (tr.ADAM_CHUNK + 1,),
                  (300, 129), (3, 2)]
        params = [ad.parameter(g.normal(size=s)) for s in shapes]
        frozen = params[-1]
        opt = tr.Adam(params, lr=0.01)
        state = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
                 for p in params[:-1]]
        frozen_data, frozen_m, frozen_v = frozen.data.copy(), opt.m[-1], opt.v[-1]
        for t in range(1, 5):
            grads = [g.normal(size=p.shape) for p in params[:-1]]
            for p, grad in zip(params[:-1], grads):
                p.grad = grad.copy()
            opt.step()
            state = [adam_reference(*s, grad, t, lr=0.01)
                     for s, grad in zip(state, grads)]
        for p, m, v, (theta, m_ref, v_ref) in zip(params, opt.m, opt.v, state):
            assert np.array_equal(p.data, theta)
            assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref)
        assert np.array_equal(frozen.data, frozen_data)
        assert opt.m[-1] is frozen_m and opt.v[-1] is frozen_v
        assert not frozen_m.any() and not frozen_v.any()

    def test_state_hand_off_continues_bitwise(self):
        # perfbench copies step_count, m and v into a fresh optimizer over
        # copied parameters; both must then take identical steps.
        g = np.random.Generator(np.random.PCG64(3))
        shapes = [(tr.ADAM_CHUNK + 5,), (7, 11)]
        params = [ad.parameter(g.normal(size=s)) for s in shapes]
        opt = tr.Adam(params, lr=0.02)
        for _ in range(2):
            for p in params:
                p.grad = g.normal(size=p.shape)
            opt.step()
        copies = [ad.parameter(p.data) for p in params]
        twin = tr.Adam(copies, lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2,
                       eps=opt.eps)
        twin.step_count = opt.step_count
        twin.m = [m.copy() for m in opt.m]
        twin.v = [v.copy() for v in opt.v]
        for _ in range(3):
            for p, q in zip(params, copies):
                p.grad = g.normal(size=p.shape)
                q.grad = p.grad.copy()
            opt.step()
            twin.step()
        mine = [p.data for p in params] + opt.m + opt.v
        theirs = [q.data for q in copies] + twin.m + twin.v
        for x, y in zip(mine, theirs, strict=True):
            assert np.array_equal(x, y)

    def test_non_contiguous_parameter_is_rejected(self):
        p = ad.parameter(np.ones((4, 3)).T)
        assert not p.data.flags.c_contiguous
        p.grad = np.ones(p.shape)
        with pytest.raises(ValueError, match="C-contiguous"):
            tr.Adam([p]).step()

    def test_zero_lr_is_noop(self):
        p = ad.parameter(np.ones((2, 2)))
        before = p.data.copy()
        opt = tr.Adam([p], lr=0.0)
        p.grad = np.full((2, 2), 3.3)
        opt.step()
        np.testing.assert_array_equal(p.data, before)


class TestSampleNegatives:
    def test_forced_complement(self):
        rng = np.random.Generator(np.random.PCG64(0))
        got = tr.sample_negatives(np.array([0, 1]), 3, 1, rng)
        assert got.tolist() == [2]

    def test_deterministic_under_seed(self):
        draws = []
        for _ in range(2):
            rng = np.random.Generator(np.random.PCG64(5))
            draws.append([tr.sample_negatives(np.array([1]), 50, 10, rng)
                          for _ in range(4)])
        for a, b in zip(*draws):
            np.testing.assert_array_equal(a, b)

    def test_pinned_draws_and_rng_state(self):
        # Recorded with the earlier setdiff1d complement: the draws and the
        # generator state after them must not move.
        rng = np.random.Generator(np.random.PCG64(42))
        got = [tr.sample_negatives(np.array([0, 3, 4, 7, 19]), 20, 6, rng),
               tr.sample_negatives(np.array([1, 2, 5]), 12, 4, rng),
               tr.sample_negatives(np.array([], dtype=np.int64), 9, 3, rng)]
        assert [g.tolist() for g in got] == [
            [11, 12, 10, 16, 9, 1], [10, 8, 9, 11], [4, 5, 3]]
        assert int(rng.integers(1 << 30)) == 995106329

    def test_without_replacement(self):
        rng = np.random.Generator(np.random.PCG64(1))
        got = tr.sample_negatives(np.array([3]), 20, 19, rng)
        assert len(set(got.tolist())) == 19
        assert 3 not in got

    def test_oversized_request_raises_data_error(self):
        rng = np.random.Generator(np.random.PCG64(2))
        with pytest.raises(DataError, match="only 3 unseen"):
            tr.sample_negatives(np.array([0]), 4, 10, rng)

    def test_uniform_within_three_sigma(self):
        rng = np.random.Generator(np.random.PCG64(3))
        n, size, rounds = 20, 5, 20000  # 1e5 draws total
        forbidden = np.array([0, 7])
        counts = np.zeros(n)
        for _ in range(rounds):
            for idx in tr.sample_negatives(forbidden, n, size, rng):
                counts[idx] += 1
        assert counts[0] == 0 and counts[7] == 0
        total = rounds * size
        p = 1.0 / 18.0
        # without-replacement draws are negatively correlated; the binomial
        # sigma is an upper bound
        sigma = np.sqrt(total * p * (1 - p))
        for item in range(n):
            if item in (0, 7):
                continue
            assert abs(counts[item] - total * p) < 3 * sigma

    def test_full_catalog_consumed_raises(self):
        rng = np.random.Generator(np.random.PCG64(4))
        with pytest.raises(DataError):
            tr.sample_negatives(np.arange(5), 5, 1, rng)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_draws_as_the_allowed_id_mask_does(self, data, n_items, seed):
        # ids, dtype and generator state of a draw from the masked complement
        forbidden = np.array(sorted(data.draw(st.sets(
            st.integers(0, n_items - 1), max_size=n_items))), dtype=np.int64)
        size = data.draw(st.integers(0, n_items - forbidden.size))
        allowed = np.ones(n_items, dtype=bool)
        allowed[forbidden] = False
        masked = np.random.Generator(np.random.PCG64(seed))
        want = masked.choice(np.flatnonzero(allowed), size=size, replace=False)
        rng = np.random.Generator(np.random.PCG64(seed))
        got = tr.sample_negatives(forbidden, n_items, size, rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == masked.bit_generator.state


class TestBuildExamples:
    def test_shifted_targets_alignment(self):
        dataset = SplitDataset(1, 9, [[3, 1, 4, 1, 5]], [2], [6])
        (ex,) = tr.build_examples(dataset)
        assert ex.inputs == [3, 1, 4, 1]
        assert ex.step_targets == [1, 4, 1, 5]
        assert ex.positive == 5
        assert set(ex.forbidden.tolist()) == {3, 1, 4, 5, 2, 6}

    def test_short_users_skipped(self):
        dataset = SplitDataset(2, 9, [[3], [1, 2]], [4, 5], [6, 7])
        examples = tr.build_examples(dataset)
        assert [ex.user for ex in examples] == [1]

    def test_forbidden_equals_per_user_unique(self):
        g = np.random.Generator(np.random.PCG64(17))
        n_users, n_items = 40, 12
        train = [g.integers(0, n_items, size=g.integers(0, 9)).tolist()
                 for _ in range(n_users)]
        val = g.integers(0, n_items, size=n_users).tolist()
        test = g.integers(0, n_items, size=n_users).tolist()
        for u in range(0, n_users, 3):  # held-out items also seen in train
            if train[u]:
                val[u] = train[u][0]
                test[u] = train[u][-1]
        train[1] = [5, 5, 5, 2, 5]  # repeats
        dataset = SplitDataset(n_users, n_items, train, val, test)
        examples = tr.build_examples(dataset)
        assert [ex.user for ex in examples] == [
            u for u in range(n_users) if len(train[u]) >= 2]
        for ex in examples:
            want = np.unique(np.asarray(
                train[ex.user] + [val[ex.user], test[ex.user]], dtype=np.int64))
            assert ex.forbidden.dtype == want.dtype
            np.testing.assert_array_equal(ex.forbidden, want)


class TestTrainStep:
    def test_zero_lr_leaves_params_bit_identical(self):
        hyper, _, params, adjacency, examples, _, rng = setup_instance(
            learning_rate=0.0)
        opt = tr.Adam(params.parameters(), lr=0.0)
        before = {k: t.data.copy() for k, t in params.named().items()}
        tr.train_step(examples, params, adjacency, hyper, opt, rng)
        for name, tensor in params.named().items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_overflowing_total_stops_the_step_before_any_update(self):
        # Finite components whose weighted sum overflows: one NumericError,
        # from total_loss, and no parameter moves.
        hyper, _, params, adjacency, examples, opt, rng = setup_instance(
            weights=LossWeights(1e308, 1e308, 0.0, 0.0))
        before = {k: t.data.copy() for k, t in params.named().items()}
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="not finite: no component; components: "
                "{'local': [0-9.]+, 'global': [0-9.]+, 'fused': None, "
                "'contrastive': None}"):
            tr.train_step(examples, params, adjacency, hyper, opt, rng)
        for name, tensor in params.named().items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_returns_all_component_scalars(self):
        hyper, _, params, adjacency, examples, opt, rng = setup_instance()
        scalars = tr.train_step(examples, params, adjacency, hyper, opt, rng)
        assert set(scalars) == {"local", "global", "fused", "contrastive",
                                "total"}
        assert all(np.isfinite(v) for v in scalars.values())

    def test_single_step_descends_on_total_loss(self):
        hyper, _, params, adjacency, examples, _, _ = setup_instance(
            learning_rate=1e-2, dropout_rate=0.0)
        opt = tr.Adam(params.parameters(), lr=1e-2)

        def loss_now():
            rng = np.random.Generator(np.random.PCG64(7))
            h0 = dataclasses.replace(hyper, learning_rate=0.0)
            frozen = tr.Adam(params.parameters(), lr=0.0)
            return tr.train_step(examples, params, adjacency, h0, frozen,
                                 rng)["total"]

        before = loss_now()
        rng = np.random.Generator(np.random.PCG64(7))
        tr.train_step(examples, params, adjacency, hyper, opt, rng)
        after = loss_now()
        assert after < before

    def test_every_block_updates_on_generic_batch(self):
        hyper, _, params, adjacency, examples, opt, rng = setup_instance(
            learning_rate=1e-3)
        before = {k: t.data.copy() for k, t in params.named().items()}
        tr.train_step(examples, params, adjacency, hyper, opt, rng)
        for name, tensor in params.named().items():
            assert not np.array_equal(tensor.data, before[name]), \
                f"no update reached {name}"

    def test_padding_row_never_updates(self):
        hyper, _, params, adjacency, examples, opt, rng = setup_instance(
            learning_rate=5e-2)
        pad = params.tables.padding_id
        for _ in range(3):
            tr.train_step(examples, params, adjacency, hyper, opt, rng)
        np.testing.assert_array_equal(params.tables.item.data[pad],
                                      np.zeros(hyper.d))

    @pytest.mark.parametrize("user_state", ["first_token", "last_position"])
    @pytest.mark.parametrize("pattern", [(1.0, 0.5, 1.0, 0.5),
                                         (0.0, 0.5, 1.0, 0.0)],
                             ids=["all_losses", "state_only"])
    def test_no_gradient_reaches_the_padding_row(self, pattern, user_state):
        # Masked keys and losses that skip padding positions leave the
        # padding row's gradient exactly +0.0, so no step can move it.
        weights = LossWeights(*pattern, lambda_reg=1e-3)
        hyper, _, params, adjacency, examples, _, rng = setup_instance(
            weights=weights, user_state=user_state, dropout_rate=0.2)
        batch, *rest = tr.step_inputs(examples, params.tables,
                                      hyper.n_negatives, rng)
        assert not batch.valid_mask().all()  # some windows are padded
        _, loss = tr.step_losses(params, adjacency, hyper, batch, *rest,
                                 train_mode=True, rng=rng)
        loss.backward()
        row = params.tables.item.grad[params.tables.padding_id]
        assert np.array_equal(row, np.zeros(hyper.d))
        assert not np.signbit(row).any()

    def test_sequential_only_ignores_adjacency(self):
        weights = LossWeights(1.0, 0.0, 0.0, 0.0)
        hyper, dataset, params, adjacency, examples, opt, rng = \
            setup_instance(weights=weights, scoring_head="sequential")
        h2, _, params2, _, examples2, opt2, rng2 = setup_instance(
            weights=weights, scoring_head="sequential")
        perturbed = build_adjacency(
            [[0] for _ in range(dataset.n_users)], dataset.n_users,
            dataset.n_items)
        tr.train_step(examples, params, adjacency, hyper, opt, rng)
        tr.train_step(examples2, params2, perturbed, h2, opt2, rng2)
        for name, tensor in params.named().items():
            np.testing.assert_array_equal(tensor.data,
                                          params2.named()[name].data)


def test_step_and_evaluate_propagate_only_the_rows_they_read(monkeypatch):
    shapes = []
    original = ad.spmm

    def spy(adj, x):
        shapes.append(adj.shape)
        return original(adj, x)

    monkeypatch.setattr(ad, "spmm", spy)
    hyper, dataset, params, adjacency, examples, opt, rng = setup_instance(
        m=60, n=40, weights=LossWeights(0.0, 1.0, 0.0, 0.0),
        scoring_head="graph", k=2, batch_size=8)
    tr.train_step(examples[:8], params, adjacency, hyper, opt, rng)
    assert len(shapes) == 2 and shapes[0] == adjacency.adj.shape
    # the batch's users, positives and first negatives, no window items
    assert shapes[1][0] <= 3 * 8
    shapes.clear()
    evaluate(params, dataset, "validation", hyper, adjacency=adjacency)
    assert shapes[-1] == (dataset.n_users, dataset.n_users + dataset.n_items)


def test_step_without_position_losses_builds_user_states_only(monkeypatch):
    encoded = []
    original = md.seq_encode

    def encode(*args, **kwargs):
        out = original(*args, **kwargs)
        encoded.append(out[1])
        return out

    monkeypatch.setattr(md, "seq_encode", encode)
    hyper, _, params, adjacency, examples, opt, rng = setup_instance(
        weights=LossWeights(0.0, 0.5, 1.0, 0.0), dropout_rate=0.2)
    scalars = tr.train_step(examples, params, adjacency, hyper, opt, rng)
    assert encoded == [None]
    assert np.isfinite(scalars["total"]) and scalars["fused"] > 0


# The ForwardStates fields each weighted loss reads; the contrastive loss
# gathers ``E_g`` from the node table itself.
LOSS_READS = {"alpha": ("E_l",), "beta": ("e_g", "node_embeddings"),
              "gamma": ("e_f",), "delta": ("E_l", "node_embeddings")}
# The fields each flag of ``encoder_paths`` builds; off, they stay None.
PATH_FIELDS = {"need_seq": ("e_l", "E_l"),
               "need_graph": ("e_g", "node_embeddings", "initial_nodes",
                              "node_rows"),
               "need_fused": ("e_f",), "positions": ("E_l",)}


@pytest.mark.parametrize("pattern", list(itertools.product((0.0, 0.5), repeat=4)))
@pytest.mark.parametrize("head", md.SCORING_HEADS)
def test_encoder_paths_build_what_the_head_and_weighted_losses_read(head, pattern):
    weights = LossWeights(*pattern, lambda_reg=1e-3)
    hyper, _, params, adjacency, examples, _, rng = setup_instance(
        weights=weights, scoring_head=head)
    inputs = tr.step_inputs(examples, params.tables, hyper.n_negatives, rng)
    batch = inputs[0]
    paths = md.encoder_paths(head, weights)
    states = md.forward_states(params, batch, adjacency, hyper.k, **paths)
    read = {md.HEAD_STATES[head]}
    for name, weight in zip(LOSS_READS, pattern):
        if weight > 0:
            read.update(LOSS_READS[name])
    assert all(getattr(states, name) is not None for name in read)
    skipped = {name for flag, on in paths.items() if not on
               for name in PATH_FIELDS[flag]}
    assert all(getattr(states, name) is None for name in skipped)
    _, total = tr.step_losses(params, adjacency, hyper, *inputs)
    assert np.isfinite(total.data)


@pytest.mark.parametrize("positive", [-1, 11])
def test_bpr_items_outside_the_catalog_are_refused(positive):
    # -1 would train against user 6's propagated row; 11 (= N) would fail
    # inside the restricted hop with a bare numpy IndexError.
    hyper, params, adjacency, batch, targets, positives, negatives = (
        make_gradient_instance())
    hyper.weights = LossWeights(0.0, 1.0, 0.0, 0.0, lambda_reg=1e-3)
    hyper.scoring_head = "graph"
    positives[0] = positive
    with pytest.raises(IndexError, match=r"BPR item id out of range \[0, 11\)"):
        tr.step_losses(params, adjacency, hyper, batch, targets, positives,
                       negatives)


# Every on/off pattern, and a fused run without the contrastive loss.
WEIGHT_PATTERNS = [*itertools.product((0.0, 0.5), repeat=4), (1.0, 0.5, 1.0, 0.0)]


@pytest.mark.parametrize("pattern", WEIGHT_PATTERNS)
@pytest.mark.parametrize("head", md.SCORING_HEADS)
def test_step_propagates_the_rows_its_weighted_losses_read(
        monkeypatch, head, pattern):
    weights = LossWeights(*pattern, lambda_reg=1e-3)
    hyper, _, params, adjacency, examples, _, rng = setup_instance(
        weights=weights, scoring_head=head)
    batch, targets, positives, negatives = tr.step_inputs(
        examples, params.tables, hyper.n_negatives, rng)
    propagated, gathered = [], []
    propagate, gather = md.propagated_embeddings, tr.gather_windows

    def propagating(*args, rows=None, **kwargs):
        propagated.append(rows)
        return propagate(*args, rows=rows, **kwargs)

    def gathering(*args, **kwargs):
        gathered.append(args)
        return gather(*args, **kwargs)

    monkeypatch.setattr(md, "propagated_embeddings", propagating)
    monkeypatch.setattr(tr, "gather_windows", gathering)
    _, total = tr.step_losses(params, adjacency, hyper, batch, targets,
                              positives, negatives)
    assert np.isfinite(total.data)
    n_users = params.tables.n_users
    read = [batch.user_ids]
    if weights.beta > 0:
        read += [n_users + positives, n_users + negatives[:, 0]]
    if weights.delta > 0:
        read.append(window_nodes(batch, n_users,
                                 params.tables.n_items).ravel())
    if md.encoder_paths(head, weights)["need_graph"]:
        assert len(propagated) == 1
        np.testing.assert_array_equal(propagated[0],
                                      np.unique(np.concatenate(read)))
    else:
        assert propagated == []
    assert len(gathered) == (1 if weights.delta > 0 else 0)


def test_first_step_losses_are_pinned():
    # float.hex values of the unfused local loss (matmul + cross_entropy);
    # 80 users x 20 full window slots give 1 600 rows, two row tiles.
    dataset = generate_clustered_markov(n_users=80, n_items=60, n_clusters=6,
                                        min_len=24, max_len=30, seed=3)
    hyper = tr.Hyperparams(
        c=20, d=16, k=2, n_layers=2, n_heads=2, dropout_rate=0.1,
        user_state="first_token",
        weights=LossWeights(1.0, 0.5, 1.0, 0.5, lambda_reg=1e-3),
        n_negatives=5, batch_size=80, seed=3)
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), 3)
    adjacency = build_adjacency(dataset.train, dataset.n_users, dataset.n_items)
    examples = tr.build_examples(dataset)
    scalars = tr.train_step(examples, params, adjacency, hyper,
                            tr.Adam(params.parameters()),
                            np.random.Generator(np.random.PCG64(4)))
    assert {name: value.hex() for name, value in scalars.items()} == {
        "local": "0x1.0608c5f9a7bd8p+2",
        "global": "0x1.62e6e303bb9e8p-1",
        "fused": "0x1.caaeb85578a2dp+0",
        "contrastive": "0x1.df4964f3abce2p+5",
        "total": "0x1.21810ec1be1b1p+5",
    }


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def catalog_wide_step():
    """(forward, step) of catalog_wide's model on 300 users x 480 items, one
    64-user batch: ``step_losses`` alone, and ``train_step``."""
    spec = json.loads(WORKLOADS.read_text())["workloads"]["catalog_wide"]
    dataset = generate_clustered_markov(
        **{**spec["generator"], "n_users": 300, "n_items": 480}, seed=0)
    hyper = cfg.to_hyperparams(
        cfg.resolve_config({**spec["config"], "batch_size": 64}))
    params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                        hyper.seq_config(), hyper.seed)
    adjacency = build_adjacency(dataset.train, dataset.n_users, dataset.n_items)
    chunk = tr.build_examples(dataset)[:hyper.batch_size]
    optimizer = tr.Adam(params.parameters())

    def forward():
        rng = np.random.Generator(np.random.PCG64(1))
        inputs = tr.step_inputs(chunk, params.tables, hyper.n_negatives, rng)
        tr.step_losses(params, adjacency, hyper, *inputs,
                       train_mode=True, rng=rng)

    def step():
        tr.train_step(chunk, params, adjacency, hyper, optimizer,
                      np.random.Generator(np.random.PCG64(1)))

    return forward, step


def test_backward_adds_little_to_the_forward_peak():
    # The backward frees each node's gradient and closure as the sweep
    # passes it, and weight gradients build no per-sample stack, so the step
    # peaks near its forward; keeping them all until the step returns about
    # doubles the peak.
    forward, step = catalog_wide_step()
    assert peak_bytes(step) <= 1.08 * peak_bytes(forward)


def test_fused_encoder_ops_shrink_the_forward_peak(monkeypatch):
    # ad.attention and ad.feed_forward keep only what their backward reads;
    # the compositions they replace keep every intermediate on the tape.
    # Both passes hold every recorded op output until the forward returns,
    # so the comparison is of what the ops' closures keep, not of which
    # outputs the tape lets go.
    forward, _ = catalog_wide_step()
    make, outputs = ad._make, []

    def keep_output(*args):
        out = make(*args)
        if out.node.backward is not None:
            outputs.append(out)
        return out

    monkeypatch.setattr(ad, "_make", keep_output)
    fused = peak_bytes(forward)
    outputs.clear()
    composed_ops.patch_into(monkeypatch)
    assert fused <= 0.75 * peak_bytes(forward)


def replay_reference_steps(monkeypatch, hyper, n_users):
    """Three steps and a validation pass, with every optimised op and then
    with its reference form in composed_ops, compared bit for bit. Two runs
    are compared rather than a pinned hash, since OpenBLAS picks its kernels
    per CPU."""
    dataset = generate_clustered_markov(n_users=n_users, seed=3)
    examples = tr.build_examples(dataset)

    def run():
        params = init_model(dataset.n_users, dataset.n_items, hyper.c,
                            hyper.seq_config(), hyper.seed)
        adjacency = build_adjacency(dataset.train, dataset.n_users,
                                    dataset.n_items)
        optimizer = tr.Adam(params.parameters(), lr=1e-2)
        rng = np.random.Generator(np.random.PCG64(5))
        losses = [tr.train_step(examples, params, adjacency, hyper, optimizer,
                                rng) for _ in range(3)]
        report = evaluate(params, dataset, "validation", hyper,
                          adjacency=adjacency)
        return (losses, [p.data for p in params.parameters()],
                optimizer.m + optimizer.v, report)

    fused_losses, fused_params, fused_moments, fused_report = run()
    composed_ops.patch_into(monkeypatch)
    losses, params, moments, report = run()
    assert fused_losses == losses and fused_report == report
    for got, want in zip(fused_params + fused_moments, params + moments,
                         strict=True):
        assert np.array_equal(got, want)
    return examples


def test_train_steps_replay_the_reference_ops_bit_for_bit(monkeypatch):
    # dropout on, all four losses, a local loss over two row tiles
    hyper = small_hyper(c=20, n_layers=2, dropout_rate=0.2, batch_size=64)
    examples = replay_reference_steps(monkeypatch, hyper, n_users=64)
    assert sum(min(len(e.inputs), hyper.c) for e in examples) > ad.LCE_TILE_ROWS


def test_state_row_train_steps_replay_the_reference_ops_bit_for_bit(
        monkeypatch):
    # no loss reads E_l, so training runs the final block on the state row
    # alone: attention's query_row backward, under the fused loss
    hyper = small_hyper(c=20, n_layers=2, dropout_rate=0.2, batch_size=48,
                        n_negatives=40,
                        weights=LossWeights(0.0, 0.5, 1.0, 0.0, lambda_reg=1e-3))
    assert not md.encoder_paths(hyper.scoring_head, hyper.weights)["positions"]
    replay_reference_steps(monkeypatch, hyper, n_users=48)


class TestStepComposition:
    """The finite-difference oracle differentiates the step train_step takes."""

    @pytest.mark.parametrize("layer_mean", [False, True])
    def test_oracle_total_equals_train_step_total(self, layer_mean):
        instance = make_gradient_instance()
        hyper, params, adjacency = instance[:3]
        examples = tr.build_examples(random_dataset(7, 11, 7))  # its defaults
        hyper.layer_mean = layer_mean
        oracle = float(component_loss_fn("total", *instance)().data)
        # the instance draws its negatives from PCG64(seed + 1) = PCG64(8)
        stepped = tr.train_step(examples, params, adjacency, hyper,
                                tr.Adam(params.parameters(), lr=0.0),
                                np.random.Generator(np.random.PCG64(8)))
        assert stepped["total"] == oracle

    @pytest.mark.parametrize("name", ["global", "total"])
    def test_layer_mean_gradients_match_finite_differences(self, name):
        instance = make_gradient_instance(d=4, c=3, m=5, n=7, k=1, n_layers=1)
        instance[0].layer_mean = True
        report = ad.finite_difference_check(component_loss_fn(name, *instance),
                                            instance[1].named())
        failed = {block: entry["max_rel_error"]
                  for block, entry in report.items() if not entry["passed"]}
        assert not failed

    def test_reference_instance_losses_match_benchmark_record(self):
        reference = json.loads(WORKLOADS.read_text())["reference_instance"]
        instance = make_gradient_instance()
        for name, want in reference["losses"].items():
            got = float(component_loss_fn(name, *instance)().data)
            assert abs(got - want) <= reference["tolerance"], name


def test_params_copy_is_independent_and_skips_init(monkeypatch):
    _, _, params, _, _, _, _ = setup_instance()
    for p in params.parameters():
        p.grad = np.ones_like(p.data)

    def no_init(*args, **kwargs):
        raise AssertionError("copy re-ran the seeded initialization")

    monkeypatch.setattr("mrgsrec.model.init_model", no_init)
    clone = params.copy()
    for name, tensor in clone.named().items():
        original = params.named()[name]
        assert tensor.requires_grad and tensor.grad is None
        np.testing.assert_array_equal(tensor.data, original.data)
        tensor.data += 1.0
        assert not np.array_equal(tensor.data, original.data)


class TestFit:
    def test_zero_epochs_returns_initial_params_and_empty_log(self):
        dataset = random_dataset(6, 12, 0)
        hyper = small_hyper(max_epochs=0)
        params, history = tr.fit(dataset, hyper)
        assert history == []
        fresh = init_model(6, 12, hyper.c, hyper.seq_config(), hyper.seed)
        for name, tensor in params.named().items():
            np.testing.assert_array_equal(tensor.data,
                                          fresh.named()[name].data)

    def test_leaking_adjacency_rejected_before_training(self, monkeypatch):
        dataset = random_dataset(6, 12, 0)
        original = gr.build_adjacency

        def leaking(train, m, n):  # validation targets become graph edges
            return original([seq + [dataset.val[u]]
                             for u, seq in enumerate(train)], m, n)

        monkeypatch.setattr(gr, "build_adjacency", leaking)
        with pytest.raises(GraphError, match="validation target"):
            tr.fit(dataset, small_hyper(max_epochs=0))

    def test_more_negatives_than_unseen_items_rejected_before_training(
            self, monkeypatch):
        dataset = generate_clustered_markov(n_users=80, n_items=60,
                                            n_clusters=6, min_len=10,
                                            max_len=16, seed=2)
        examples = tr.build_examples(dataset)
        assert min(60 - ex.forbidden.size for ex in examples) < 50

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(tr, "train_step", no_step)
        with pytest.raises(DataError, match="negative_samples=50"):
            tr.fit(dataset, small_hyper(n_negatives=50, max_epochs=1))

    def test_early_stop_after_exactly_patience_flat_epochs(self):
        dataset = random_dataset(6, 12, 1)
        hyper = small_hyper(learning_rate=0.0, max_epochs=50, patience=3)
        _, history = tr.fit(dataset, hyper)
        # epoch 1 sets the best metric; then `patience` flat epochs stop it
        assert len(history) == 1 + hyper.patience

    def test_identical_seeds_identical_trajectories(self):
        dataset = random_dataset(8, 14, 2)
        hyper = small_hyper(max_epochs=3, dropout_rate=0.2, seed=11)
        params_a, hist_a = tr.fit(dataset, hyper)
        params_b, hist_b = tr.fit(dataset, hyper)
        assert [h.val_ndcg10 for h in hist_a] == [h.val_ndcg10 for h in hist_b]
        for name, tensor in params_a.named().items():
            np.testing.assert_array_equal(tensor.data,
                                          params_b.named()[name].data)

    def test_epoch_log_schema(self, tmp_path):
        import json
        dataset = random_dataset(6, 12, 3)
        log_path = tmp_path / "train.log"
        hyper = small_hyper(max_epochs=2)
        tr.fit(dataset, hyper, log_path=log_path, fingerprint="fp123")
        lines = log_path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert set(record["losses"]) == {"local", "global", "fused",
                                             "contrastive", "total"}
            for key in ("epoch", "val_hr5", "val_hr10", "val_ndcg5",
                        "val_ndcg10", "seconds", "fingerprint", "seed"):
                assert key in record
            assert record["fingerprint"] == "fp123"

    def test_learns_synthetic_structure_beyond_popularity(self):
        from mrgsrec.evaluation import evaluate
        dataset = generate_clustered_markov(
            n_users=150, n_items=100, n_clusters=10, min_len=14, max_len=22,
            seed=9)
        assert popularity_hr_at_k(dataset, 10) < 0.2
        hyper = tr.Hyperparams(
            c=8, d=16, k=2, n_layers=1, n_heads=2, dropout_rate=0.1,
            user_state="last_position",
            weights=LossWeights(1.0, 0.1, 0.1, 0.1),
            n_negatives=30, batch_size=64, max_epochs=50, patience=50,
            seed=0, learning_rate=5e-3)
        params, history = tr.fit(dataset, hyper)
        assert max(h.val_hr10 for h in history) > 0.5
