"""Checkpoint format: round trip, magic line, and pinned files from before
and after the block checksum."""

import hashlib
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mrgsrec.errors import ParseError
from mrgsrec.model import (init_model, load_checkpoint, n_values,
                           save_checkpoint)
from mrgsrec.seqenc import SeqEncoderConfig

# Written by save_checkpoint when the byte layout still lived in
# mrgsrec.embeddings (save_arrays / load_arrays), from the model and meta
# that fixture_model() and FIXTURE_META rebuild below.
FIXTURE = Path(__file__).parent / "fixtures" / "tiny_v1.ckpt"
# The same model and meta as save_checkpoint writes them now: the header
# also holds the sha256 of the block bytes.
CHECKSUMMED = Path(__file__).parent / "fixtures" / "tiny_v1_sha256.ckpt"
FIXTURE_META = {
    "fingerprint": "0f1e2d3c4b5a6978", "seed": 3, "epochs_run": 0,
    "config": {"window_length": 3, "embedding_dim": 4, "encoder_layers": 1,
               "attention_heads": 2, "checkpoint": None}}


def fixture_model():
    """5 users, 7 items, c=3, d=4, one encoder layer; block i holds
    (size // 2 - arange(size)) * 0.1 + i in row-major order."""
    params = init_model(5, 7, 3, SeqEncoderConfig(d=4, n_layers=1, n_heads=2,
                                                  user_state="first_token"),
                        seed=3)
    for i, tensor in enumerate(params.named().values()):
        size = tensor.data.size
        tensor.data[...] = ((size // 2 - np.arange(size)) * 0.1
                            + i).reshape(tensor.shape)
    return params


def header(path):
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, len(b"MRGS-CKPT-v1\n"))
    start = len(b"MRGS-CKPT-v1\n") + 8
    return json.loads(raw[start:start + length])


def blocks_size(path):
    return sum(8 * int(np.prod(entry["shape"])) for entry in header(path)["arrays"])


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        params = init_model(4, 6, 3, SeqEncoderConfig(d=4, n_layers=1), seed=0)
        meta = {"fingerprint": "ff", "seed": 9}
        path = tmp_path / "dump.ckpt"
        save_checkpoint(path, params, meta)
        loaded, lmeta = load_checkpoint(path)
        assert {k: v for k, v in lmeta.items() if k != "model"} == meta
        for name, tensor in params.named().items():
            np.testing.assert_array_equal(loaded.named()[name].data,
                                          tensor.data)

    def test_magic_line_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WRONG-MAGIC\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [
        {"config": 5}, {"config": "run.json"}, {"fingerprint": 5},
        {"fingerprint": None}, {"fingerprint": ["a"]}])
    def test_meta_eval_cannot_read_is_not_written(self, tmp_path, meta):
        params = init_model(2, 3, 2, SeqEncoderConfig(d=2, n_layers=0,
                                                      n_heads=1), seed=0)
        path = tmp_path / "meta.ckpt"
        with pytest.raises(ParseError, match="checkpoint meta"):
            save_checkpoint(path, params, meta)
        assert not path.exists()

    def test_file_starts_with_magic(self, tmp_path):
        params = init_model(2, 3, 2, SeqEncoderConfig(d=2, n_layers=0,
                                                      n_heads=1), seed=0)
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, params, {})
        assert path.read_bytes().startswith(b"MRGS-CKPT-v1\n")


@pytest.mark.parametrize("sizes,config", [
    ((4, 6, 3), SeqEncoderConfig(d=4, n_layers=1)),
    ((2, 3, 2), SeqEncoderConfig(d=2, n_layers=0, n_heads=1)),
    ((7, 11, 5), SeqEncoderConfig(d=6, n_layers=3, n_heads=3, d_ff=5)),
])
def test_n_values_counts_what_init_model_allocates(sizes, config):
    params = init_model(*sizes, config, seed=0)
    assert n_values(*sizes, config) == sum(t.data.size
                                           for t in params.parameters())


def test_header_of_a_larger_model_is_rejected_before_it_is_built(tmp_path):
    # A 5-user checkpoint whose header claims 2 000 000 users: building
    # that model would allocate about 1 GB.
    path = tmp_path / "edited.ckpt"
    raw = CHECKSUMMED.read_bytes()
    edited = raw.replace(b'"n_users":5,', b'"n_users":2000000,')
    magic = len(b"MRGS-CKPT-v1\n")
    (length,) = struct.unpack_from("<Q", raw, magic)
    path.write_bytes(edited[:magic] + struct.pack("<Q", length + 6)
                     + edited[magic + 8:])
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="header describes"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


class TestEarlierFixture:
    def test_loads_every_block_and_the_meta(self):
        params, meta = load_checkpoint(FIXTURE)
        expected = fixture_model()
        assert list(params.named()) == list(expected.named())
        for name, tensor in expected.named().items():
            np.testing.assert_array_equal(params.named()[name].data,
                                          tensor.data)
        assert meta == {**FIXTURE_META, "model": {
            "n_users": 5, "n_items": 7, "c": 3, "d": 4, "n_layers": 1,
            "n_heads": 2, "d_ff": 16, "dropout_rate": 0.2,
            "attention_mode": "causal", "user_state": "first_token"}}
        assert params.seq_config == expected.seq_config

    def test_resaves_byte_for_byte(self, tmp_path):
        # Re-saving adds only the checksum: the same blocks, the same meta.
        params, meta = load_checkpoint(FIXTURE)
        path = tmp_path / "again.ckpt"
        save_checkpoint(path, params, meta)
        assert path.read_bytes() == CHECKSUMMED.read_bytes()
        save_checkpoint(path, fixture_model(), FIXTURE_META)
        assert path.read_bytes() == CHECKSUMMED.read_bytes()
        assert header(FIXTURE).keys() == {"meta", "arrays"}
        blocks = FIXTURE.read_bytes()[-blocks_size(FIXTURE):]
        assert header(CHECKSUMMED) == {
            **header(FIXTURE), "sha256": hashlib.sha256(blocks).hexdigest()}

    def test_checksummed_fixture_loads(self):
        params, meta = load_checkpoint(CHECKSUMMED)
        assert meta == load_checkpoint(FIXTURE)[1]
        for name, tensor in fixture_model().named().items():
            np.testing.assert_array_equal(params.named()[name].data,
                                          tensor.data)
