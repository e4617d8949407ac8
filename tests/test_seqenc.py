"""Sequential encoder: masking policy, shape contracts, oracle forward pass."""

import numpy as np
import pytest

import composed_ops
from mrgsrec import autodiff as ad
from mrgsrec import seqenc as se
from mrgsrec.embeddings import build_batch, embed_sequence, init_tables
from mrgsrec.verification import state_only_gaps


def make_inputs(b=3, c=4, d=8, seed=0, lengths=None):
    g = np.random.Generator(np.random.PCG64(seed))
    e_u = ad.Tensor(g.normal(size=(b, d)))
    E_u = ad.Tensor(g.normal(size=(b, c, d)))
    if lengths is None:
        lengths = g.integers(1, c + 1, size=b)
    return e_u, E_u, np.asarray(lengths)


class TestMask:
    def test_full_length_causal_rows(self):
        mask = se.causal_attention_mask(3, np.array([2]))
        rows = [set(np.flatnonzero(mask[0, i])) for i in range(3)]
        assert rows == [{0}, {0, 1}, {0, 1, 2}]

    def test_padded_slot_excluded_everywhere(self):
        mask = se.causal_attention_mask(3, np.array([1]))  # slot 0 is padding
        assert not mask[0, :, 1].any()

    def test_padding_rows_see_user_token_only(self):
        mask = se.causal_attention_mask(4, np.array([1]))
        assert set(np.flatnonzero(mask[0, 1])) == {0}
        assert set(np.flatnonzero(mask[0, 2])) == {0}

    def test_bidirectional_valid_rows_see_all_valid(self):
        mask = se.causal_attention_mask(4, np.array([2]), mode="bidirectional")
        assert set(np.flatnonzero(mask[0, 3])) == {0, 2, 3}
        assert set(np.flatnonzero(mask[0, 2])) == {0, 2, 3}

    def test_attention_normalizes_with_neg_inf_fill(self):
        mask = se.causal_attention_mask(4, np.array([2, 3]))
        g = np.random.Generator(np.random.PCG64(1))
        scores = g.normal(size=(2, 4, 4)) * 30
        # one head, identity keys, values and output projection: the output
        # rows are the probabilities
        eye = np.eye(4)
        probs = ad.attention(scores, eye, eye, eye, mask, 1).data
        np.testing.assert_allclose(probs.sum(-1), 1.0, atol=1e-12)
        assert np.all(probs[~mask] == 0.0)

    def test_length_above_window_rejected(self):
        with pytest.raises(ValueError):
            se.causal_attention_mask(3, np.array([5]))


class TestShapes:
    def test_output_matches_input_shape(self):
        cfg = se.SeqEncoderConfig(d=8, n_layers=2, n_heads=2, dropout_rate=0.0)
        params = se.init_seq_params(cfg, seed=0)
        e_u, E_u, lengths = make_inputs(d=8)
        e_l, E_l = se.seq_encode(e_u, E_u, params, cfg, lengths)
        assert e_l.shape == e_u.shape
        assert E_l.shape == E_u.shape

    def test_zero_layers_is_identity(self):
        cfg = se.SeqEncoderConfig(d=8, n_layers=0, n_heads=2, dropout_rate=0.0,
                                  user_state="first_token")
        params = se.init_seq_params(cfg, seed=0)
        e_u, E_u, lengths = make_inputs(d=8)
        e_l, E_l = se.seq_encode(e_u, E_u, params, cfg, lengths)
        np.testing.assert_array_equal(e_l.data, e_u.data)
        np.testing.assert_array_equal(E_l.data, E_u.data)

    def test_dimension_mismatch_rejected(self):
        cfg = se.SeqEncoderConfig(d=8, n_layers=1, n_heads=2)
        params = se.init_seq_params(cfg, seed=0)
        e_u, E_u, lengths = make_inputs(d=6)
        from mrgsrec.errors import DimensionError
        with pytest.raises(DimensionError):
            se.seq_encode(e_u, E_u, params, cfg, lengths)


def oracle_encoder(e_u, E_u, layer, length, mode="causal"):
    """Scalar-arithmetic re-implementation: single layer, single head."""
    x = np.concatenate([e_u[None, :], E_u], axis=0)  # (T, d)
    T, d = x.shape
    c = T - 1
    allowed = np.zeros((T, T), dtype=bool)
    valid = [True] + [slot >= c - length for slot in range(c)]
    for i in range(T):
        for j in range(T):
            if j == 0:
                allowed[i, j] = True
            elif valid[i] and valid[j] and i > 0:
                allowed[i, j] = (j <= i) if mode == "causal" else True
    allowed[0, 1:] = False if mode == "causal" else [
        valid[j] for j in range(1, T)]

    def ln(v, gain, bias):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return (v - mu) / np.sqrt(var + 1e-6) * gain + bias

    h = np.stack([ln(x[t], layer["ln1_g"], layer["ln1_b"]) for t in range(T)])
    q, k, v = h @ layer["wq"], h @ layer["wk"], h @ layer["wv"]
    out = np.zeros_like(x)
    for i in range(T):
        scores = np.array([
            q[i] @ k[j] / np.sqrt(d) if allowed[i, j] else -np.inf
            for j in range(T)])
        scores -= scores[allowed[i]].max()
        weights = np.where(allowed[i], np.exp(scores), 0.0)
        weights /= weights.sum()
        out[i] = sum(weights[j] * v[j] for j in range(T)) @ layer["wo"]
    x = x + out
    h2 = np.stack([ln(x[t], layer["ln2_g"], layer["ln2_b"]) for t in range(T)])
    ff = np.maximum(h2 @ layer["w1"].T + layer["b1"], 0.0) @ layer["w2"].T \
        + layer["b2"]
    x = x + ff
    return x[0], x[1:]


class TestOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_single_layer_single_head_matches_scalar_oracle(self, seed):
        d, c = 4, 2
        cfg = se.SeqEncoderConfig(d=d, n_layers=1, n_heads=1, d_ff=6,
                                  dropout_rate=0.0, user_state="first_token")
        params = se.init_seq_params(cfg, seed=seed)
        g = np.random.Generator(np.random.PCG64(seed + 50))
        for tensor in params.layers[0].values():
            tensor.data[...] = g.normal(0.0, 0.4, size=tensor.data.shape)
        e_u, E_u, _ = make_inputs(b=2, c=c, d=d, seed=seed)
        lengths = np.array([2, 1])
        e_l, E_l = se.seq_encode(e_u, E_u, params, cfg, lengths)
        layer = {k: t.data for k, t in params.layers[0].items()}
        for b in range(2):
            el_o, El_o = oracle_encoder(e_u.data[b], E_u.data[b], layer,
                                        int(lengths[b]))
            np.testing.assert_allclose(e_l.data[b], el_o, atol=1e-10)
            np.testing.assert_allclose(E_l.data[b], El_o, atol=1e-10)


class TestCausality:
    def setup_method(self):
        self.cfg = se.SeqEncoderConfig(d=8, n_layers=2, n_heads=2,
                                       dropout_rate=0.0,
                                       user_state="first_token")
        self.params = se.init_seq_params(self.cfg, seed=4)
        for layer in self.params.layers:
            for key in ("wq", "wk", "wv", "wo", "w1", "w2"):
                layer[key].data *= 20.0  # make effects visible

    def test_perturbing_item_t_only_changes_later_positions(self):
        c = 5
        e_u, E_u, _ = make_inputs(b=1, c=c, d=8, seed=5)
        lengths = np.array([c])
        e_l0, E_l0 = se.seq_encode(e_u, E_u, self.params, self.cfg, lengths)
        for t in range(c):
            bumped = ad.Tensor(E_u.data.copy())
            bumped.data[0, t] += 0.37
            e_l1, E_l1 = se.seq_encode(e_u, bumped, self.params, self.cfg,
                                       lengths)
            np.testing.assert_array_equal(e_l1.data, e_l0.data)
            for s in range(t):
                np.testing.assert_array_equal(E_l1.data[0, s], E_l0.data[0, s])
            assert not np.allclose(E_l1.data[0, t], E_l0.data[0, t])

    def test_padding_invariance(self):
        c = 4
        e_u, E_u, _ = make_inputs(b=2, c=c, d=8, seed=6)
        lengths = np.array([2, 3])
        e_l0, E_l0 = se.seq_encode(e_u, E_u, self.params, self.cfg, lengths)
        garbage = ad.Tensor(E_u.data.copy())
        mask = np.ones((2, c), dtype=bool)
        mask[0, :2] = False
        mask[1, :1] = False
        garbage.data[~mask] = 1234.5
        e_l1, E_l1 = se.seq_encode(e_u, garbage, self.params, self.cfg, lengths)
        np.testing.assert_array_equal(e_l1.data, e_l0.data)
        np.testing.assert_array_equal(E_l1.data[0, 2:], E_l0.data[0, 2:])
        np.testing.assert_array_equal(E_l1.data[1, 1:], E_l0.data[1, 1:])


class TestDeterminism:
    def test_eval_mode_repeatable(self):
        cfg = se.SeqEncoderConfig(d=8, n_layers=2, n_heads=2, dropout_rate=0.3)
        params = se.init_seq_params(cfg, seed=7)
        e_u, E_u, lengths = make_inputs(d=8, seed=8)
        a = se.seq_encode(e_u, E_u, params, cfg, lengths, train_mode=False)
        b = se.seq_encode(e_u, E_u, params, cfg, lengths, train_mode=False)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_train_mode_with_fixed_seed_repeatable(self):
        cfg = se.SeqEncoderConfig(d=8, n_layers=1, n_heads=2, dropout_rate=0.4)
        params = se.init_seq_params(cfg, seed=7)
        e_u, E_u, lengths = make_inputs(d=8, seed=8)
        outs = []
        for _ in range(2):
            rng = np.random.Generator(np.random.PCG64(99))
            outs.append(se.seq_encode(e_u, E_u, params, cfg, lengths,
                                      train_mode=True, rng=rng))
        assert np.array_equal(outs[0][0].data, outs[1][0].data)
        assert np.array_equal(outs[0][1].data, outs[1][1].data)

    def test_train_mode_dropout_requires_rng(self):
        cfg = se.SeqEncoderConfig(d=8, n_layers=1, n_heads=2, dropout_rate=0.4)
        params = se.init_seq_params(cfg, seed=7)
        e_u, E_u, lengths = make_inputs(d=8)
        with pytest.raises(ValueError):
            se.seq_encode(e_u, E_u, params, cfg, lengths, train_mode=True)


@pytest.mark.parametrize("rate,train_mode", [(0.0, False), (0.3, True)])
def test_encoder_gradients_match_finite_differences(rate, train_mode):
    cfg = se.SeqEncoderConfig(d=4, n_layers=1, n_heads=2, d_ff=8,
                              dropout_rate=rate)
    params = se.init_seq_params(cfg, seed=9)
    g = np.random.Generator(np.random.PCG64(10))
    for tensor in params.layers[0].values():
        tensor.data[...] = g.normal(0.0, 0.5, size=tensor.data.shape)
    e_u = ad.parameter(g.normal(size=(2, 4)))
    E_u = ad.parameter(g.normal(size=(2, 3, 4)))
    lengths = np.array([3, 2])
    blocks = {"e_u": e_u, "E_u": E_u}
    blocks.update(params.named())

    def loss_fn():
        # a fresh generator per call: every probe drops the same entries
        rng = np.random.Generator(np.random.PCG64(11))
        e_l, E_l = se.seq_encode(e_u, E_u, params, cfg, lengths,
                                 train_mode=train_mode, rng=rng)
        return ad.add(ad.tsum(ad.square(e_l)), ad.tsum(ad.square(E_l)))

    report = ad.finite_difference_check(loss_fn, blocks)
    for name, entry in report.items():
        assert entry["passed"], f"{name}: {entry}"


@pytest.mark.parametrize("positions", [True, False])
def test_fused_blocks_replay_the_composed_encoder(monkeypatch, positions):
    # values and every gradient, dropout on, bit for bit
    cfg = se.SeqEncoderConfig(d=6, n_layers=2, n_heads=2, d_ff=12,
                              dropout_rate=0.3)
    params = se.init_seq_params(cfg, seed=3)
    e_u, E_u, lengths = make_inputs(b=4, c=5, d=6, lengths=[5, 2, 1, 3])

    def run():
        inputs = {"e_u": ad.parameter(e_u.data), "E_u": ad.parameter(E_u.data)}
        e_l, E_l = se.seq_encode(*inputs.values(), params, cfg, lengths,
                                 train_mode=True, positions=positions,
                                 rng=np.random.Generator(np.random.PCG64(5)))
        loss = ad.tsum(ad.square(e_l))
        if positions:
            loss = ad.add(loss, ad.tsum(ad.square(E_l)))
        blocks = {**inputs, **params.named()}
        grads = ad.grad(loss, list(blocks.values()))
        return [e_l.data, None if E_l is None else E_l.data, *grads]

    fused = run()
    composed_ops.patch_into(monkeypatch)
    composed = run()
    for got, want in zip(fused, composed, strict=True):
        assert np.array_equal(got, want)


def test_config_validation():
    with pytest.raises(ValueError):
        se.SeqEncoderConfig(d=7, n_heads=2)
    with pytest.raises(ValueError):
        se.SeqEncoderConfig(d=8, n_heads=2, dropout_rate=1.0)
    with pytest.raises(ValueError):
        se.SeqEncoderConfig(d=8, n_heads=2, attention_mode="diagonal")


def test_last_position_user_state():
    cfg = se.SeqEncoderConfig(d=4, n_layers=0, n_heads=1,
                              user_state="last_position")
    params = se.init_seq_params(cfg, seed=0)
    tables = init_tables(2, 5, 3, 4, seed=1)
    batch = build_batch([0, 1], [[2], [1, 3]], 3, tables.padding_id)
    e_u, E_u = embed_sequence(batch, tables)
    e_l, _ = se.seq_encode(e_u, E_u, params, cfg, batch.valid_lengths)
    # identity encoder: the user state is the final window slot embedding
    np.testing.assert_array_equal(e_l.data, E_u.data[:, -1, :])


class TestStateOnly:
    """``positions=False`` builds the user states alone."""

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("mode", se.ATTENTION_MODES)
    @pytest.mark.parametrize("user_state", se.USER_STATES)
    def test_states_match_the_full_pass(self, user_state, mode, n_layers):
        # e_l, e_g and e_f on windows of 1 to c+2 items, k = 2
        gaps = state_only_gaps(user_state, mode, n_layers)
        assert set(gaps) == {"fused", "sequential", "graph"}
        assert max(gaps.values()) <= 1e-12
        assert gaps["graph"] == 0.0

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_seq_encode_returns_no_positions(self, n_layers):
        e_u, E_u, lengths = make_inputs(b=4, c=5, lengths=[1, 5, 3, 1])
        config = se.SeqEncoderConfig(d=8, n_layers=n_layers, n_heads=2,
                                     dropout_rate=0.0,
                                     user_state="last_position")
        params = se.init_seq_params(config, seed=2)
        e_l, E_l = se.seq_encode(e_u, E_u, params, config, lengths)
        state, none = se.seq_encode(e_u, E_u, params, config, lengths,
                                    positions=False)
        assert none is None and E_l.shape == (4, 5, 8)
        assert state.shape == (4, 8)
        np.testing.assert_allclose(state.data, e_l.data, rtol=0, atol=1e-12)
