"""Each documented rejection that no other test reaches raises its error
class with its message: shape errors of the autodiff ops, a graph that
disagrees with its tables, a forward pass or scoring head that cannot run,
and each reader's or generator's refusal of an input it cannot use."""

import numpy as np
import pytest
import scipy.sparse as sp

from mrgsrec import autodiff as ad
from mrgsrec import config as cfg
from mrgsrec import data as dp
from mrgsrec import graph as gr
from mrgsrec import losses, seqenc, synthetic, training
from mrgsrec.embeddings import build_batch, init_tables
from mrgsrec.errors import DataError, DimensionError, ParseError
from mrgsrec.model import ForwardStates, forward_states, init_model, score_batch

CONFIG = seqenc.SeqEncoderConfig(d=4, n_layers=1)


def empty_token(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("u1,i1,1\n,i2,2\n", encoding="utf-8")
    dp.load_interactions(path, delimiter=",")


def snapshot_list(tmp_path):
    path = tmp_path / "data.snap"
    path.write_text(dp.SNAPSHOT_MAGIC + "\n[]\n", encoding="utf-8")
    dp.load_snapshot(path)


def config_list(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    cfg.load_config(path)


def graph_tables_disagree(tmp_path):
    adjacency = gr.build_adjacency([[0, 1], [2, 3]], 2, 4)
    gr.propagated_embeddings(init_tables(3, 4, 2, 4, seed=0), adjacency, 1)


def graph_path_without_adjacency(tmp_path):
    params = init_model(2, 4, 2, CONFIG, seed=0)
    batch = build_batch([0, 1], [[0, 1], [2]], 2, params.tables.padding_id)
    forward_states(params, batch, None, 1, need_seq=False, need_fused=False)


def unknown_head(tmp_path):
    params = init_model(2, 4, 2, CONFIG, seed=0)
    score_batch(params, ForwardStates(e_l=ad.as_tensor(np.ones((1, 4)))),
                "sequence")


def no_learnable_user(tmp_path):
    dataset = dp.SplitDataset(2, 4, [[0], [1]], [2, 3], [3, 0])
    training.build_examples(dataset)


REJECTIONS = {
    "autodiff.matmul": (
        lambda _: ad.matmul(np.ones(3), np.ones((3, 2))),
        DimensionError, r"matmul operands must have ndim >= 2"),
    "autodiff.cross_entropy": (
        lambda _: ad.cross_entropy(np.ones(3), 0),
        DimensionError, r"cross_entropy logits must be \(rows, classes\)"),
    "autodiff.sampled_logits": (
        lambda _: ad.sampled_logits(np.ones((2, 4)), np.ones((3, 4)),
                                    [0, 1], [0, 2]),
        DimensionError, r"sampled_logits needs \(B, d\) rows, an \(N, d\) "
                        r"table and \(B, S\) negatives, got \(2, 4\), "
                        r"\(3, 4\), \(2,\)"),
    "autodiff.spmm": (
        lambda _: ad.spmm(sp.identity(3, format="csr"), np.ones((2, 4))),
        DimensionError, r"spmm: adjacency columns 3 != rows 2"),
    "graph.propagated_embeddings": (
        graph_tables_disagree,
        DataError, r"adjacency and tables disagree on M or N"),
    "model.forward_states": (
        graph_path_without_adjacency,
        ValueError, r"graph path requested without an adjacency"),
    "model.score_batch": (
        unknown_head,
        ValueError, r"scoring head 'sequence' unavailable or unknown"),
    "seqenc.causal_attention_mask": (
        lambda _: seqenc.causal_attention_mask(3, np.array([1]), "sideways"),
        ValueError, r"unknown attention mode 'sideways'"),
    "seqenc.seq_encode": (
        lambda _: seqenc.seq_encode(
            ad.as_tensor(np.ones(4)), ad.as_tensor(np.ones((1, 2, 4))),
            seqenc.init_seq_params(CONFIG, seed=0), CONFIG, np.array([2])),
        DimensionError, r"expected e_u \(B, d\) and E_u \(B, c, d\)"),
    "losses.contrastive_loss": (
        lambda _: losses.contrastive_loss(
            ad.as_tensor(np.ones((1, 2, 3))), ad.as_tensor(np.ones((1, 2, 4))),
            np.ones((1, 2), dtype=bool)),
        ValueError, r"shape mismatch \(1, 2, 3\) vs \(1, 2, 4\)"),
    "data.load_interactions": (
        empty_token, ParseError, r"raw\.csv:2: empty user or item token"),
    "data.min_count_filter": (
        lambda _: dp.min_count_filter([], 1, mode="twice"),
        ValueError, r"unknown filter mode 'twice'"),
    "data.drop_short_users": (
        lambda _: dp.drop_short_users([dp.RawInteraction("u", "i", 1)] * 2),
        DataError, r"no users have >= 3 interactions"),
    "data.load_snapshot": (
        snapshot_list, ParseError, r"snapshot payload is not a JSON object"),
    "config.load_config": (
        config_list, ParseError, r"config\.json: config must be a JSON object"),
    "synthetic.n_items": (
        lambda _: synthetic.generate_clustered_markov(n_items=10, n_clusters=3),
        ValueError, r"n_items must be divisible by n_clusters"),
    "synthetic.n_preferred": (
        lambda _: synthetic.generate_clustered_markov(
            n_items=12, n_clusters=2, n_preferred=3),
        ValueError, r"n_preferred cannot exceed n_clusters"),
    "training.build_examples": (
        no_learnable_user,
        DataError, r"no user has enough train interactions to learn from"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_a_documented_rejection_raises_its_class_and_message(case, tmp_path):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error, match=message) as caught:
        call(tmp_path)
    assert type(caught.value) is error
