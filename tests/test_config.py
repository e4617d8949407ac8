"""Run settings: config keys, defaults and derived structures stay pinned."""

import itertools

import pytest

from mrgsrec import config as cfg
from mrgsrec.errors import ParseError
from mrgsrec.fusion import SCORING_HEADS
from mrgsrec.losses import LossWeights
from mrgsrec.model import encoder_paths
from mrgsrec.seqenc import SeqEncoderConfig
from mrgsrec.training import Hyperparams


def test_default_config_fingerprint_and_key_count_unchanged():
    resolved = cfg.resolve_config({})
    assert len(resolved) == 29
    assert cfg.fingerprint(resolved) == "becf6282e1d62615"


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
    ("dropout_rate", 1.0)])
def test_bad_value_raises_parse_error_naming_key(key, value):
    with pytest.raises(ParseError, match=key):
        cfg.to_hyperparams(cfg.resolve_config({key: value}))


def training_paths_oracle(weights, head):
    """A path runs when the head reads it or a loss with non-zero weight
    does; the fused path needs both encoders."""
    need_fused = weights.gamma > 0 or head == "fused"
    need_seq = (weights.alpha > 0 or weights.delta > 0 or need_fused
                or head == "sequential")
    need_graph = (weights.beta > 0 or weights.delta > 0 or need_fused
                  or head == "graph")
    return need_seq, need_graph, need_fused


def test_encoder_paths_match_oracle():
    for head in SCORING_HEADS:
        assert encoder_paths(head) == (head in ("fused", "sequential"),
                                       head in ("fused", "graph"),
                                       head == "fused")
        for pattern in itertools.product((0.0, 0.5), repeat=4):
            weights = LossWeights(*pattern)
            assert encoder_paths(head, weights) == training_paths_oracle(weights, head)
