"""Fusion block, and the ranking scores ``model.score_batch`` forms."""

import numpy as np
import pytest

import composed_ops
from mrgsrec import autodiff as ad
from mrgsrec import fusion as fu
from mrgsrec.errors import DimensionError
from mrgsrec.model import (HEAD_STATES, SCORING_HEADS, ForwardStates,
                           init_model, score_batch)
from mrgsrec.seqenc import SeqEncoderConfig


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_params(d, seed=0, scale=0.5):
    g = rng(seed)
    return fu.FusionParams(
        w1=ad.parameter(g.normal(0.0, scale, (4 * d, 2 * d))),
        w2=ad.parameter(g.normal(0.0, scale, (d, 4 * d))))


def scoring_model(items, fusion=None):
    """A model whose real item rows are ``items`` (its padding row is zero),
    with ``fusion`` as its fusion block when given."""
    n, d = items.shape
    params = init_model(1, n, 1, SeqEncoderConfig(d=d, n_layers=0, n_heads=1),
                        seed=0)
    params.tables.item.data[:n] = items
    if fusion is not None:
        params.fusion = fusion
    return params


def score(params, state, head="fused"):
    """``score_batch`` of ``state`` held in the field of ``head``."""
    return score_batch(params, ForwardStates(**{HEAD_STATES[head]: state}),
                       head)


class TestFuse:
    def test_zero_w1_gives_zero_output(self):
        d = 3
        params = random_params(d, seed=1)
        params.w1.data[...] = 0.0
        e_l = ad.Tensor(rng(2).normal(size=(4, d)))
        e_g = ad.Tensor(rng(3).normal(size=(4, d)))
        np.testing.assert_array_equal(fu.fuse(e_l, e_g, params).data,
                                      np.zeros((4, d)))

    def test_hand_arithmetic_oracle_d2(self):
        d = 2
        g = rng(4)
        w1 = g.normal(size=(8, 4))
        w2 = g.normal(size=(2, 8))
        params = fu.FusionParams(ad.parameter(w1), ad.parameter(w2))
        e_l = ad.Tensor(np.array([[1.0, 0.0]]))
        e_g = ad.Tensor(np.array([[0.0, 1.0]]))
        out = fu.fuse(e_l, e_g, params).data[0]
        x = np.array([1.0, 0.0, 0.0, 1.0])
        hidden = [max(0.0, sum(w1[r, k] * x[k] for k in range(4)))
                  for r in range(8)]
        expect = [sum(w2[r, k] * hidden[k] for k in range(8)) for r in range(2)]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_output_dimension_is_d(self):
        for d, b in ((2, 1), (5, 7), (8, 3)):
            params = random_params(d, seed=d)
            e_l = ad.Tensor(rng(d).normal(size=(b, d)))
            e_g = ad.Tensor(rng(d + 1).normal(size=(b, d)))
            assert fu.fuse(e_l, e_g, params).shape == (b, d)

    def test_positive_homogeneity(self):
        d = 4
        params = random_params(d, seed=5)
        e_l = ad.Tensor(rng(6).normal(size=(3, d)))
        e_g = ad.Tensor(rng(7).normal(size=(3, d)))
        base = fu.fuse(e_l, e_g, params).data
        for alpha in (0.0, 0.25, 2.0, 17.5):
            scaled = fu.fuse(ad.Tensor(alpha * e_l.data),
                             ad.Tensor(alpha * e_g.data), params).data
            np.testing.assert_allclose(scaled, alpha * base, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        params = random_params(3)
        with pytest.raises(DimensionError):
            fu.fuse(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))),
                    params)
        with pytest.raises(DimensionError):
            fu.fuse(ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((2, 4))),
                    params)

    def test_replays_the_primitive_composition_bit_for_bit(self):
        # fuse's earlier form: concat, two matmuls by transposed weights, ReLU
        def composed(e_l, e_g, params):
            x = ad.concat([e_l, e_g], axis=-1)
            hidden = composed_ops.relu(
                ad.matmul(x, ad.swapaxes(params.w1, 0, 1)))
            return ad.matmul(hidden, ad.swapaxes(params.w2, 0, 1))

        d, b = 3, 6
        g = rng(13)
        e_l, e_g = g.normal(size=(b, d)), g.normal(size=(b, d))
        e_g[[1, 4]] = 0.0  # users whose graph state is exactly zero
        e_l[4] = 0.0       # an all-zero input: every pre-activation is 0
        w1, w2 = g.normal(size=(4 * d, 2 * d)), g.normal(size=(d, 4 * d))
        weights = g.normal(size=(b, d))
        results = []
        for fn in (fu.fuse, composed):
            leaves = [ad.parameter(x) for x in (e_l, e_g, w1, w2)]
            out = fn(*leaves[:2], fu.FusionParams(*leaves[2:]))
            ad.tsum(ad.mul(out, weights)).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
        assert not results[0][0][4].any()
        for got, want in zip(*results, strict=True):
            assert np.array_equal(got, want)

    def test_identity_init_passes_local_state_through(self, monkeypatch):
        monkeypatch.setattr(fu, "INIT_MIX", 0.0)
        monkeypatch.setattr(fu, "INIT_NOISE", 0.0)
        d = 6
        params = fu.init_fusion_params(d, seed=0)
        e_l = ad.Tensor(rng(8).normal(size=(5, d)))
        e_g = ad.Tensor(rng(9).normal(size=(5, d)))
        np.testing.assert_allclose(fu.fuse(e_l, e_g, params).data, e_l.data,
                                   atol=1e-12)


class TestScore:
    def test_zero_state_zero_scores(self):
        params = scoring_model(rng(1).normal(size=(9, 4)))
        for head in SCORING_HEADS:
            scores = score(params, ad.Tensor(np.zeros((3, 4))), head)
            np.testing.assert_array_equal(scores.data, np.zeros((3, 9)))

    def test_orthonormal_self_similarity(self):
        items = np.eye(6)[:5]  # 5 orthonormal rows in R^6
        params = scoring_model(items)
        state = ad.Tensor(items[3:4])
        assert int(np.argmax(score(params, state).data[0])) == 3

    def test_matches_pairwise_loop_oracle(self):
        g = rng(2)
        state = ad.Tensor(g.normal(size=(6, 4)))
        items = g.normal(size=(10, 4))
        params = scoring_model(items)
        scores = score(params, state).data
        for b in range(6):
            for i in range(10):
                assert scores[b, i] == pytest.approx(
                    float(np.dot(state.data[b], items[i])), abs=1e-12)
        # every head forms the same product, bit for bit
        want = state.data @ params.tables.item_rows().data.T
        for head in SCORING_HEADS:
            assert np.array_equal(score(params, state, head).data, want)

    def test_ranking_invariant_to_orthogonal_shift(self):
        g = rng(3)
        # item rows live in the first 3 coordinates of R^5
        items = np.zeros((8, 5))
        items[:, :3] = g.normal(size=(8, 3))
        params = scoring_model(items)
        state = g.normal(size=(1, 5))
        shifted = state + np.array([[0.0, 0.0, 0.0, 4.2, -1.7]])
        s0 = score(params, ad.Tensor(state)).data[0]
        s1 = score(params, ad.Tensor(shifted)).data[0]
        np.testing.assert_array_equal(np.argsort(-s0, kind="stable"),
                                      np.argsort(-s1, kind="stable"))


def test_fuse_and_score_gradients_match_finite_differences():
    d = 3
    g = rng(11)
    e_l = ad.parameter(g.normal(size=(2, d)))
    e_g = ad.parameter(g.normal(size=(2, d)))
    params = scoring_model(g.normal(size=(5, d)), random_params(d, seed=12))
    blocks = {"w1": params.fusion.w1, "w2": params.fusion.w2, "e_l": e_l,
              "e_g": e_g, "items": params.tables.item}

    def loss_fn():
        scores = score(params, fu.fuse(e_l, e_g, params.fusion))
        return ad.tsum(ad.square(scores))

    report = ad.finite_difference_check(loss_fn, blocks)
    for name, entry in report.items():
        assert entry["passed"], f"{name}: {entry}"
