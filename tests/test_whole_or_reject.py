"""Whole or reject: each reader, given a damaged copy of a file its writer
made, raises ParseError (CLI exit code 2) or returns a value that round-trips
through that writer. Nothing is half-loaded, and nothing else escapes.

The damage is one of: a truncation at a random byte, one byte replaced, one
key dropped, or one key's value replaced by a value of another JSON type.
"""

import copy
import functools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mrgsrec import config as cfg
from mrgsrec import data as dp
from mrgsrec.errors import ParseError
from mrgsrec.model import (CHECKPOINT_MAGIC, init_model, load_checkpoint,
                           save_checkpoint)
from mrgsrec.seqenc import SeqEncoderConfig

# One value of each JSON type; a retyped key gets one whose type differs.
OTHER_VALUES = (None, True, 2, 0.5, "2", [2], {"2": 2})

RUN = {"data": "data.snap", "checkpoint": "model.ckpt", "log": None,
       "window_length": 4, "embedding_dim": 8, "graph_layers": 1,
       "encoder_layers": 1, "attention_heads": 2, "dropout_rate": 0.0,
       "negative_samples": 2, "batch_size": 8, "max_epochs": 2,
       "patience": 2, "seed": 1, "learning_rate": 1e-3}


@functools.cache
def written_files() -> dict[str, bytes]:
    """A snapshot ``prepare`` made from a 12-user log, a run config, and a
    checkpoint of a 5-user, 7-item model, as their writers lay them out."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_log, snap, ckpt = (Path(tmp) / name
                               for name in ("raw.tsv", "data.snap", "m.ckpt"))
        raw_log.write_text("".join(f"user{u}\titem{(u + 2 * j) % 9}\t{j * 100 + u}\n"
                                   for u in range(12) for j in range(7)),
                           encoding="utf-8")
        dataset, dropped = dp.prepare(raw_log, threshold=3)
        dp.save_snapshot(snap, dataset, fingerprint="0123456789abcdef",
                         extra={"dropped_short_users": dropped,
                                "filter_mode": "fixpoint"})
        params = init_model(5, 7, 3, SeqEncoderConfig(d=4, n_layers=1), seed=0)
        save_checkpoint(ckpt, params, {"fingerprint": "ff", "seed": 1,
                                       "config": cfg.resolve_config(RUN),
                                       "epochs_run": 0})
        return {"snapshot": snap.read_bytes(), "config": json.dumps(RUN).encode(),
                "checkpoint": ckpt.read_bytes()}


def snapshot_document(raw: bytes):
    magic, _, body = raw.partition(b"\n")
    return json.loads(body), lambda doc: magic + b"\n" + json.dumps(doc).encode()


def config_document(raw: bytes):
    return json.loads(raw), lambda doc: json.dumps(doc).encode()


def checkpoint_document(raw: bytes):
    """The JSON header, and a function that writes a header back in front of
    the unchanged blocks with its length updated."""
    start = len(CHECKPOINT_MAGIC) + 8
    (length,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))
    blocks = raw[start + length:]

    def rebuild(doc):
        body = json.dumps(doc).encode()
        return CHECKPOINT_MAGIC + struct.pack("<Q", len(body)) + body + blocks
    return json.loads(raw[start:start + length]), rebuild


def key_paths(doc, prefix=()):
    """The path of every key of every JSON object nested in ``doc``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from key_paths(value, prefix + (i,))


@st.composite
def damaged(draw, name: str, document):
    """The written file ``name`` truncated, with one byte replaced, or with
    one key of its JSON ``document`` dropped or retyped."""
    raw = written_files()[name]
    kind = draw(st.sampled_from(("truncate", "replace", "drop", "retype")))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "replace":
        at = draw(st.integers(0, len(raw) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    doc, rebuild = document(raw)
    *parents, key = draw(st.sampled_from(list(key_paths(doc))))
    node = doc
    for step in parents:
        node = node[step]
    if kind == "drop":
        del node[key]
    else:
        node[key] = copy.deepcopy(draw(st.sampled_from(
            [v for v in OTHER_VALUES if type(v) is not type(node[key])])))
    return rebuild(doc)


def test_the_undamaged_files_load():
    with tempfile.TemporaryDirectory() as tmp:
        snap, ckpt = Path(tmp) / "data.snap", Path(tmp) / "m.ckpt"
        snap.write_bytes(written_files()["snapshot"])
        ckpt.write_bytes(written_files()["checkpoint"])
        assert dp.load_snapshot(snap)[0].n_users == 12
        assert load_checkpoint(ckpt)[1]["config"] == cfg.resolve_config(RUN)
    assert json.loads(written_files()["config"]) == RUN


@given(damaged("snapshot", snapshot_document))
def test_snapshot_loads_whole_or_is_rejected(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "data.snap", Path(tmp) / "again.snap"
        path.write_bytes(raw)
        try:
            dataset, meta = dp.load_snapshot(path)
        except ParseError:
            return
        dp.save_snapshot(again, dataset, **meta)
        assert dp.load_snapshot(again) == (dataset, meta)


@given(damaged("config", config_document))
def test_config_loads_whole_or_is_rejected(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_bytes(raw)
        try:
            run = cfg.load_config(path)
            hyper = cfg.to_hyperparams(run)
        except ParseError:
            return
    # A run's config is written into its checkpoint's meta as JSON.
    again = cfg.resolve_config(json.loads(json.dumps(run)))
    assert again == run and cfg.fingerprint(again) == cfg.fingerprint(run)
    assert cfg.to_hyperparams(again) == hyper


@given(damaged("checkpoint", checkpoint_document))
def test_checkpoint_loads_whole_or_is_rejected(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "m.ckpt", Path(tmp) / "again.ckpt"
        path.write_bytes(raw)
        try:
            params, meta = load_checkpoint(path)
        except ParseError:
            return
        save_checkpoint(again, params, meta)
        reloaded, _ = load_checkpoint(again)
    assert list(reloaded.named()) == list(params.named())
    for name, tensor in params.named().items():
        np.testing.assert_array_equal(reloaded.named()[name].data, tensor.data)
