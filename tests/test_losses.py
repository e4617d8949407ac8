"""The four objectives: closed forms, loop oracles, reduction conventions."""

import math
import tracemalloc

import numpy as np
import pytest

import composed_ops
from mrgsrec import autodiff as ad
from mrgsrec import losses as ls
from mrgsrec.errors import DataError, NumericError


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestLocalLoss:
    def test_two_item_uniform_is_ln2(self):
        E_l = ad.Tensor(np.zeros((1, 2, 3)))
        items = ad.Tensor(np.zeros((2, 3)))  # all logits equal
        targets = np.array([[0, 1]])
        mask = np.ones((1, 2), dtype=bool)
        loss = ls.local_loss(E_l, targets, items, mask)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_loss_decreases_as_target_logit_grows(self):
        items = ad.Tensor(np.eye(3))
        targets = np.array([[0]])
        mask = np.ones((1, 1), dtype=bool)
        previous = None
        for scale in (0.0, 1.0, 5.0, 20.0, 60.0):
            E_l = ad.Tensor(np.array([[[scale, 0.0, 0.0]]]))
            value = ls.local_loss(E_l, targets, items, mask).item()
            if previous is not None:
                assert value < previous
            previous = value
        assert previous == pytest.approx(0.0, abs=1e-10)

    def test_matches_loop_softmax_oracle(self):
        g = rng(1)
        b, c, d, n = 3, 2, 3, 5
        E_l = ad.Tensor(g.normal(size=(b, c, d)))
        items = ad.Tensor(g.normal(size=(n, d)))
        targets = g.integers(0, n, size=(b, c))
        mask = g.random((b, c)) > 0.3
        mask[:, -1] = True
        total, count = 0.0, 0
        for bi in range(b):
            for t in range(c):
                if not mask[bi, t]:
                    continue
                logits = np.array([E_l.data[bi, t] @ items.data[i]
                                   for i in range(n)])
                exp = np.exp(logits - logits.max())
                total += -math.log(exp[targets[bi, t]] / exp.sum())
                count += 1
        got = ls.local_loss(E_l, targets, items, mask).item()
        assert got == pytest.approx(total / count, abs=1e-10)

    def test_no_valid_positions_raises(self):
        with pytest.raises(DataError):
            ls.local_loss(ad.Tensor(np.zeros((1, 2, 3))),
                          np.zeros((1, 2), dtype=int),
                          ad.Tensor(np.zeros((4, 3))),
                          np.zeros((1, 2), dtype=bool))

    def test_overflow_safe_at_logit_80(self):
        E_l = ad.Tensor(np.full((1, 1, 1), 80.0))
        items = ad.Tensor(np.array([[1.0], [-1.0]]))
        loss = ls.local_loss(E_l, np.array([[0]]), items,
                             np.ones((1, 1), dtype=bool))
        assert np.isfinite(loss.item())

    def test_peak_memory_stays_below_a_third_of_the_logits(self):
        # 4 096 valid positions x 3 000 items: the logits alone would be
        # R*N*8 bytes; the tiled loss holds one tile of them at a time
        g = rng(9)
        b, c, d, n = 64, 64, 8, 3000
        E_l = ad.parameter(g.normal(size=(b, c, d)))
        items = ad.parameter(g.normal(size=(n, d)))
        targets = g.integers(0, n, size=(b, c))
        mask = np.ones((b, c), dtype=bool)
        tracemalloc.start()
        try:
            ls.local_loss(E_l, targets, items, mask).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * c * n * 8 / 3
        assert E_l.grad.shape == E_l.shape and items.grad.shape == items.shape


class TestGlobalLoss:
    def test_equal_scores_give_ln2(self):
        g = rng(2)
        e_g = ad.Tensor(g.normal(size=(4, 3)))
        same = ad.Tensor(g.normal(size=(4, 3)))
        loss = ls.global_loss(e_g, same, same, ad.Tensor(np.zeros((1, 3))), 0.0)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_embeddings_ln2(self):
        zero = ad.Tensor(np.zeros((2, 3)))
        loss = ls.global_loss(zero, zero, zero, zero, 0.0)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_hand_rolled_oracle(self):
        g = rng(3)
        b, d = 5, 4
        e_g = ad.Tensor(g.normal(size=(b, d)))
        pos = ad.Tensor(g.normal(size=(b, d)))
        neg = ad.Tensor(g.normal(size=(b, d)))
        ego = ad.Tensor(g.normal(size=(3 * b, d)))
        lam = 0.37
        expect = 0.0
        for i in range(b):
            x = e_g.data[i] @ pos.data[i] - e_g.data[i] @ neg.data[i]
            expect += -math.log(1.0 / (1.0 + math.exp(-x)))
        expect /= b
        expect += lam * float((ego.data ** 2).sum()) / b
        got = ls.global_loss(e_g, pos, neg, ego, lam).item()
        assert got == pytest.approx(expect, abs=1e-10)

    def test_finite_at_margin_minus_1800(self):
        # -ln sigmoid(-1800) = 1800 + ln(1 + e^-1800); sigmoid underflows to 0
        e_g = ad.Tensor(np.array([[1.0]]))
        pos, neg = ad.Tensor(np.array([[-900.0]])), ad.Tensor(np.array([[900.0]]))
        loss = ls.global_loss(e_g, pos, neg, e_g, 0.0)
        assert loss.item() == pytest.approx(1800.0, abs=1e-9)


    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("b", [1, 31, 32, 33, 69])
    def test_replays_the_pairwise_chain(self, b, lam):
        # the (2B, d) pair table through ad.sampled_logits equals BPR scored
        # pair by pair; signed zeros in every input
        g = rng(b)
        inputs = [g.normal(size=(b, 6)) for _ in range(3)]
        inputs.append(g.normal(size=(2 * b, 6)))
        for x in inputs:
            x[g.random(x.shape) < 0.2] = 0.0
            x[g.random(x.shape) < 0.2] = -0.0
        results = []
        for loss_fn in (ls.global_loss, composed_ops.global_loss):
            params = [ad.parameter(x) for x in inputs]
            loss = loss_fn(*params, lam)
            loss.backward()
            results.append([loss.data] + [p.grad for p in params])
        (loss, e_g, pos, neg, ego), want = results
        assert loss.tobytes() == want[0].tobytes()
        assert e_g.tobytes() == want[1].tobytes()
        if lam == 0.0:  # no L2 term, no gradient for the rows
            assert ego is None and want[4] is None
        else:
            assert ego.tobytes() == want[4].tobytes()
        # the pair table's scatter sums from +0.0, where a product keeps -0.0
        assert np.array_equal(pos, want[2]) and np.array_equal(neg, want[3])


class TestFusedLoss:
    def test_uniform_single_negative_is_ln2(self):
        e_f = ad.Tensor(np.zeros((3, 4)))
        items = ad.Tensor(np.zeros((6, 4)))
        loss = ls.fused_loss(e_f, np.array([0, 1, 2]),
                             np.array([[3], [4], [5]]), items)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 5, 9])
    def test_uniform_s_negatives_is_ln_s_plus_1(self, s):
        e_f = ad.Tensor(np.zeros((2, 3)))
        items = ad.Tensor(np.zeros((s + 1, 3)))
        negs = np.tile(np.arange(1, s + 1), (2, 1))
        loss = ls.fused_loss(e_f, np.array([0, 0]), negs, items)
        assert loss.item() == pytest.approx(math.log(s + 1), abs=1e-10)

    def test_matches_loop_oracle(self):
        g = rng(4)
        b, s, d, n = 4, 3, 5, 9
        e_f = ad.Tensor(g.normal(size=(b, d)))
        items = ad.Tensor(g.normal(size=(n, d)))
        pos = g.integers(0, n, size=b)
        negs = g.integers(0, n, size=(b, s))
        expect = 0.0
        for i in range(b):
            p = math.exp(e_f.data[i] @ items.data[pos[i]])
            denom = p + sum(math.exp(e_f.data[i] @ items.data[j])
                            for j in negs[i])
            expect += -math.log(p / denom)
        got = ls.fused_loss(e_f, pos, negs, items).item()
        assert got == pytest.approx(expect / b, abs=1e-10)

    def test_invariant_to_negative_order(self):
        g = rng(5)
        e_f = ad.Tensor(g.normal(size=(2, 4)))
        items = ad.Tensor(g.normal(size=(8, 4)))
        pos = np.array([0, 1])
        negs = np.array([[2, 3, 4], [5, 6, 7]])
        a = ls.fused_loss(e_f, pos, negs, items).item()
        b = ls.fused_loss(e_f, pos, negs[:, ::-1].copy(), items).item()
        assert a == pytest.approx(b, abs=1e-12)


class TestContrastiveLoss:
    def test_single_position_is_zero(self):
        g = rng(6)
        E_l = ad.Tensor(g.normal(size=(3, 1, 4)))
        E_g = ad.Tensor(g.normal(size=(3, 1, 4)))
        mask = np.ones((3, 1), dtype=bool)
        assert ls.contrastive_loss(E_l, E_g, mask).item() == pytest.approx(
            0.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, 3.0])
    def test_diagonal_similarity_closed_form(self, s):
        # engineered so (E_l)_i . (E_g)_j = s * delta_ij with c = 2
        E_l = ad.Tensor(np.array([[[s, 0.0], [0.0, s]]]))
        E_g = ad.Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        mask = np.ones((1, 2), dtype=bool)
        per_position = -math.log(math.exp(s) / (math.exp(s) + 1.0))
        got = ls.contrastive_loss(E_l, E_g, mask).item()
        assert got == pytest.approx(2 * per_position, abs=1e-10)

    def test_matches_softmax_row_oracle(self):
        g = rng(7)
        b, c, d = 3, 4, 5
        E_l = ad.Tensor(g.normal(size=(b, c, d)))
        E_g = ad.Tensor(g.normal(size=(b, c, d)))
        mask = g.random((b, c)) > 0.3
        mask[:, 0] = True
        expect = 0.0
        for bi in range(b):
            valid = [j for j in range(c) if mask[bi, j]]
            for i in valid:
                sims = np.array([E_l.data[bi, i] @ E_g.data[bi, j]
                                 for j in valid])
                own = E_l.data[bi, i] @ E_g.data[bi, i]
                exp = np.exp(sims - sims.max())
                expect += -math.log(
                    math.exp(own - sims.max()) / exp.sum())
        got = ls.contrastive_loss(E_l, E_g, mask).item()
        assert got == pytest.approx(expect / b, abs=1e-10)

    def test_invariant_to_position_enumeration_order(self):
        # permuting positions consistently permutes the loss terms only
        g = rng(8)
        E_l = g.normal(size=(1, 4, 3))
        E_g = g.normal(size=(1, 4, 3))
        mask = np.ones((1, 4), dtype=bool)
        base = ls.contrastive_loss(ad.Tensor(E_l), ad.Tensor(E_g), mask).item()
        perm = [2, 0, 3, 1]
        permuted = ls.contrastive_loss(ad.Tensor(E_l[:, perm]),
                                       ad.Tensor(E_g[:, perm]), mask).item()
        assert base == pytest.approx(permuted, abs=1e-12)

    def test_empty_user_skipped(self):
        g = rng(9)
        E_l = ad.Tensor(g.normal(size=(2, 3, 4)))
        E_g = ad.Tensor(g.normal(size=(2, 3, 4)))
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True  # user 1 has no valid positions
        value = ls.contrastive_loss(E_l, E_g, mask).item()
        assert np.isfinite(value)
        solo = ls.contrastive_loss(
            ad.Tensor(E_l.data[:1]), ad.Tensor(E_g.data[:1]),
            mask[:1]).item()
        assert value == pytest.approx(solo / 2, abs=1e-12)  # empty user adds 0


class TestTotalLoss:
    def components(self, seed=0):
        g = rng(seed)
        return {name: ad.Tensor(abs(float(g.normal()))) for name in
                ("local", "global", "fused", "contrastive")}

    def test_single_weight_returns_component_exactly(self):
        comps = self.components()
        w = ls.LossWeights(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0)
        assert ls.total_loss(comps, w).item() == comps["local"].item()

    def test_all_zero_weights(self):
        w = ls.LossWeights(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0)
        total = ls.total_loss({}, w)
        assert total.item() == 0.0
        assert total.node.parents == ()

    def test_weighted_hand_sum(self):
        comps = self.components(3)
        w = ls.LossWeights(alpha=0.5, beta=0.2, gamma=1.0, delta=0.1)
        expect = (0.5 * comps["local"].item() + 0.2 * comps["global"].item()
                  + 1.0 * comps["fused"].item()
                  + 0.1 * comps["contrastive"].item())
        assert ls.total_loss(comps, w).item() == pytest.approx(expect,
                                                               abs=1e-12)

    def test_nan_component_aborts_with_name(self):
        comps = self.components()
        comps["fused"] = ad.Tensor(float("nan"))
        with pytest.raises(NumericError, match="fused"):
            ls.total_loss(comps, ls.LossWeights())

    def test_overflowing_total_lists_every_component(self):
        comps = {"local": ad.Tensor(1e308), "global": ad.Tensor(1e308),
                 "fused": None, "contrastive": ad.Tensor(1e308)}
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            ls.total_loss(comps, ls.LossWeights(alpha=1.0, beta=1.0,
                                                gamma=0.0, delta=0.5))
        message = str(exc.value)
        assert "total loss is inf; not finite: no component" in message
        assert ("{'local': 1e+308, 'global': 1e+308, 'fused': None, "
                "'contrastive': 1e+308}") in message

    def test_non_finite_total_names_each_bad_component(self):
        comps = self.components()
        comps["local"] = ad.Tensor(float("inf"))
        comps["contrastive"] = ad.Tensor(float("nan"))
        with pytest.raises(NumericError, match="not finite: local, contrastive;"):
            ls.total_loss(comps, ls.LossWeights())

    def test_missing_weighted_component_rejected(self):
        with pytest.raises(ValueError, match="contrastive"):
            ls.total_loss({"local": ad.Tensor(1.0), "global": ad.Tensor(1.0),
                           "fused": ad.Tensor(1.0), "contrastive": None},
                          ls.LossWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ls.LossWeights(alpha=-0.1)

    def test_zero_weight_component_detached_from_gradient(self):
        g = rng(11)
        x = ad.parameter(g.normal(size=(3,)))
        y = ad.parameter(g.normal(size=(3,)))  # only feeds "contrastive"

        def build(delta):
            comps = {
                "local": ad.tsum(ad.square(x)),
                "global": None, "fused": None,
                "contrastive": ad.tsum(ad.square(y)) if delta > 0 else None,
            }
            w = ls.LossWeights(alpha=1.0, beta=0.0, gamma=0.0, delta=delta)
            return ls.total_loss(comps, w)

        with_term = ad.grad(build(0.5), [x, y])
        without = ad.grad(build(0.0), [x, y])
        np.testing.assert_array_equal(with_term[0], without[0])
        np.testing.assert_array_equal(without[1], np.zeros(3))
