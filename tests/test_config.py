"""Run settings: config keys, defaults and derived structures stay pinned."""

import itertools
import math

import pytest

from mrgsrec import config as cfg
from mrgsrec.errors import ParseError
from mrgsrec.losses import LossWeights
from mrgsrec.model import SCORING_HEADS, encoder_paths
from mrgsrec.seqenc import SeqEncoderConfig
from mrgsrec.training import Hyperparams
from mrgsrec.verification import ablation_configs


def test_default_config_fingerprint_and_key_count_unchanged():
    resolved = cfg.resolve_config({})
    assert len(resolved) == 29
    assert cfg.fingerprint(resolved) == "bb334bbffd7a1c83"


def test_default_config_builds_default_hyperparams():
    assert cfg.to_hyperparams(cfg.resolve_config({})) == Hyperparams()


def test_seq_config_is_the_default_encoder_config():
    seq = Hyperparams().seq_config()
    assert type(seq) is SeqEncoderConfig
    assert seq == SeqEncoderConfig()


def test_every_setting_reaches_hyperparams():
    hyper = cfg.to_hyperparams(cfg.resolve_config({
        "window_length": 7, "embedding_dim": 12, "attention_heads": 3,
        "feed_forward_dim": 20, "graph_layer_mean": True, "delta": 0.0,
        "adam_epsilon": 1e-6, "negative_samples": 9}))
    assert (hyper.c, hyper.d, hyper.n_heads, hyper.d_ff) == (7, 12, 3, 20)
    assert hyper.layer_mean and hyper.weights.delta == 0.0
    assert (hyper.epsilon, hyper.n_negatives) == (1e-6, 9)


@pytest.mark.parametrize("key,value", [
    ("embedding_dim", 0), ("alpha", -1.0), ("dropout_rate", "0.2"),
    ("attention_mode", "none"), ("graph_layers", None), ("attention_heads", 3),
    ("dropout_rate", 1.0), ("negative_samples", 0), ("batch_size", 2.5),
    ("window_length", 2.5), ("seed", 1.5), ("learning_rate", "0.1"),
    ("graph_layer_mean", "yes"), ("exclude_seen", 0), ("alpha", True),
    ("feed_forward_dim", 2.0), ("feed_forward_dim", -1), ("feed_forward_dim", 0),
    ("learning_rate", -1.0), ("adam_beta1", 2.0), ("adam_beta1", -0.1),
    ("adam_beta2", 1.0), ("adam_epsilon", -1.0), ("adam_epsilon", 0.0),
    ("seed", -1), ("data", 5), ("log", 1), ("checkpoint", ["m.ckpt"]),
    ("adam_epsilon", math.inf), ("learning_rate", math.inf),
    ("lambda_reg", math.inf), ("alpha", math.inf), ("beta", math.nan),
    ("dropout_rate", -math.inf), ("gamma", 10 ** 400)])
def test_bad_value_raises_parse_error_naming_key(key, value):
    with pytest.raises(ParseError, match=key):
        cfg.to_hyperparams(cfg.resolve_config({key: value}))


def training_paths_oracle(weights, head):
    """A path runs when the head reads it or a loss with non-zero weight
    does; the fused path needs both encoders. Positions are built when the
    local or contrastive loss, which read ``E_l``, is on."""
    need_fused = weights.gamma > 0 or head == "fused"
    need_seq = (weights.alpha > 0 or weights.delta > 0 or need_fused
                or head == "sequential")
    need_graph = (weights.beta > 0 or weights.delta > 0 or need_fused
                  or head == "graph")
    return {"need_seq": need_seq, "need_graph": need_graph,
            "need_fused": need_fused,
            "positions": weights.alpha > 0 or weights.delta > 0}


def test_encoder_paths_match_oracle():
    for head in SCORING_HEADS:
        assert encoder_paths(head) == {
            "need_seq": head in ("fused", "sequential"),
            "need_graph": head in ("fused", "graph"),
            "need_fused": head == "fused", "positions": False}
        for pattern in itertools.product((0.0, 0.5), repeat=4):
            weights = LossWeights(*pattern)
            assert encoder_paths(head, weights) == training_paths_oracle(weights, head)


ABLATED_KEYS = ("scoring_head", "alpha", "beta", "gamma", "delta")


def test_default_config_ablation_fingerprints():
    variants = ablation_configs(cfg.resolve_config({}))
    assert {name: cfg.fingerprint(run) for name, run in variants.items()} == {
        "full": "bb334bbffd7a1c83", "sequential": "d25085bb948b4822",
        "graph": "59f67bff1dc7c9d4"}


@pytest.mark.parametrize("head", SCORING_HEADS)
def test_ablation_changes_only_the_head_and_the_four_weights(head):
    base = cfg.resolve_config({
        "scoring_head": head, "alpha": 0.3, "beta": 0.0, "gamma": 0.7,
        "delta": 0.0, "lambda_reg": 0.5, "embedding_dim": 12, "seed": 9})
    variants = ablation_configs(base)
    for run in variants.values():
        assert run.keys() == base.keys()
        assert all(run[key] == base[key] for key in base
                   if key not in ABLATED_KEYS)
    assert variants["full"] == {**base, "scoring_head": "fused"}
    assert [variants[name][key] for name in ("sequential", "graph")
            for key in ABLATED_KEYS] == [
        "sequential", 1.0, 0.0, 0.0, 0.0, "graph", 0.0, 1.0, 0.0, 0.0]


def test_bidirectional_attention_needs_alpha_zero():
    # Under bidirectional attention slot s sees slot s+1, its own target.
    with pytest.raises(ParseError, match="attention_mode.*alpha"):
        cfg.to_hyperparams(cfg.resolve_config({"attention_mode": "bidirectional"}))
    hyper = cfg.to_hyperparams(cfg.resolve_config(
        {"attention_mode": "bidirectional", "alpha": 0.0}))
    assert hyper.attention_mode == "bidirectional"


@pytest.mark.parametrize("key,refused,accepted", [
    ("adam_beta1", 1.0, math.nextafter(1.0, 0.0)),
    ("adam_beta2", 1.0, math.nextafter(1.0, 0.0)),
    ("dropout_rate", 1.0, math.nextafter(1.0, 0.0)),
    ("adam_epsilon", 0.0, 5e-324)])
def test_exclusive_bounds_at_their_edge(key, refused, accepted):
    with pytest.raises(ParseError, match=f"{key}.* must be [<>] "):
        cfg.to_hyperparams(cfg.resolve_config({key: refused}))
    cfg.to_hyperparams(cfg.resolve_config({key: accepted}))


def test_encoder_paths_refuse_an_unknown_head():
    with pytest.raises(ValueError, match="scoring head must be one of "
                                         r"\('fused', 'sequential', 'graph'\)"):
        encoder_paths("sequence")


def test_range_edges_stay_legal():
    hyper = cfg.to_hyperparams(cfg.resolve_config({
        "feed_forward_dim": None, "learning_rate": 0.0, "adam_beta1": 0.0,
        "adam_beta2": 0.0, "adam_epsilon": 1e-300}))
    assert hyper.d_ff == 4 * hyper.d
    assert cfg.to_hyperparams(cfg.resolve_config({"feed_forward_dim": 1})).d_ff == 1
